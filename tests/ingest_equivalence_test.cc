// Serial-vs-batched ingest equivalence.
//
// The batched ingest path (Correlator::IngestBatch: segment, measure, fold
// in trace order) must produce state bit-identical to one-at-a-time serial
// sink delivery at any batch size: same relation table (update counter,
// aging, tie-break draws), same reference streams, same file table. The binary
// snapshot covers all of it, so equality of EncodeSnapshot() bytes is the
// strongest practical assertion. Traces here are randomized with
// fork/exit/delete/rename/exclude interleavings to exercise every segment
// barrier, plus deletion→re-reference runs to exercise the resurrection
// cut inside a single batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "src/core/async_pipeline.h"
#include "src/core/correlator.h"
#include "src/core/reference_streams.h"

namespace seer {
namespace {

PathId P(const std::string& path) { return GlobalPaths().Intern(path); }

IngestEvent RefEvent(Pid pid, RefKind kind, const std::string& path, Time time) {
  IngestEvent e;
  e.kind = IngestEvent::Kind::kReference;
  e.ref.pid = pid;
  e.ref.kind = kind;
  e.ref.path = P(path);
  e.ref.time = time;
  return e;
}

// Feeds events through the plain serial sink interface (works for any
// ReferenceSink: Correlator, BatchingSink, AsyncCorrelator).
void ApplySerial(ReferenceSink* c, const std::vector<IngestEvent>& events) {
  for (const IngestEvent& e : events) {
    switch (e.kind) {
      case IngestEvent::Kind::kReference:
        c->OnReference(e.ref);
        break;
      case IngestEvent::Kind::kFork:
        c->OnProcessFork(e.parent, e.child);
        break;
      case IngestEvent::Kind::kExit:
        c->OnProcessExit(e.child);
        break;
      case IngestEvent::Kind::kDeleted:
        c->OnFileDeleted(e.path, e.time);
        break;
      case IngestEvent::Kind::kRenamed:
        c->OnFileRenamed(e.path, e.path2, e.time);
        break;
      case IngestEvent::Kind::kExcluded:
        c->OnFileExcluded(e.path);
        break;
    }
  }
}

void ApplyBatched(Correlator* c, const std::vector<IngestEvent>& events, size_t batch) {
  for (size_t i = 0; i < events.size(); i += batch) {
    const size_t n = std::min(batch, events.size() - i);
    c->IngestBatch(events.data() + i, n);
  }
}

// A randomized trace over a small path universe and a churning process
// tree. References dominate; every barrier kind appears; deleted paths get
// re-referenced so batches hit the resurrection cut.
std::vector<IngestEvent> RandomTrace(uint32_t seed, size_t count) {
  std::mt19937 rng(seed);
  std::vector<IngestEvent> events;
  events.reserve(count);

  std::vector<std::string> paths;
  for (int i = 0; i < 40; ++i) {
    paths.push_back("/eq/f" + std::to_string(i));
  }
  std::vector<Pid> pids = {1, 2, 3};
  Pid next_pid = 100;
  int next_rename = 0;
  Time time = 0;

  auto rand_path = [&]() -> const std::string& {
    return paths[rng() % paths.size()];
  };
  auto rand_pid = [&]() { return pids[rng() % pids.size()]; };

  for (size_t i = 0; i < count; ++i) {
    time += kMicrosPerSecond / 4;
    const uint32_t roll = rng() % 100;
    if (roll < 85) {
      const uint32_t kind_roll = rng() % 10;
      const RefKind kind = kind_roll < 4   ? RefKind::kBegin
                           : kind_roll < 7 ? RefKind::kEnd
                                           : RefKind::kPoint;
      events.push_back(RefEvent(rand_pid(), kind, rand_path(), time));
    } else if (roll < 89) {
      IngestEvent e;
      e.kind = IngestEvent::Kind::kFork;
      e.parent = rand_pid();
      e.child = next_pid++;
      pids.push_back(e.child);
      events.push_back(e);
    } else if (roll < 92 && pids.size() > 2) {
      const size_t victim = rng() % pids.size();
      IngestEvent e;
      e.kind = IngestEvent::Kind::kExit;
      e.child = pids[victim];
      pids.erase(pids.begin() + victim);
      events.push_back(e);
    } else if (roll < 96) {
      IngestEvent e;
      e.kind = IngestEvent::Kind::kDeleted;
      e.path = P(rand_path());
      e.time = time;
      events.push_back(e);
    } else if (roll < 98) {
      IngestEvent e;
      e.kind = IngestEvent::Kind::kRenamed;
      e.path = P(rand_path());
      // Alternate between renaming onto an existing name (replacement) and
      // a fresh one (plain move).
      e.path2 = (rng() % 2 == 0)
                    ? P(rand_path())
                    : P("/eq/renamed" + std::to_string(next_rename++));
      e.time = time;
      events.push_back(e);
    } else {
      IngestEvent e;
      e.kind = IngestEvent::Kind::kExcluded;
      e.path = P(rand_path());
      events.push_back(e);
    }
  }
  return events;
}

SeerParams ChurnParams() {
  SeerParams p;
  p.max_neighbors = 4;      // force replacement scans + RNG tie-breaks
  p.distance_horizon = 20;  // force window expiry + compensation
  p.delete_delay = 3;       // force real purges
  p.aging_updates = 500;    // force priority-3 replacements
  return p;
}

TEST(IngestEquivalence, BatchedMatchesSerialAcrossThreadCounts) {
  const std::vector<IngestEvent> events = RandomTrace(0xA11CE, 3000);

  Correlator serial(ChurnParams());
  ApplySerial(&serial, events);
  const std::string want = serial.EncodeSnapshot();

  for (const size_t batch : {size_t{3}, size_t{31}, size_t{256}, size_t{4096}}) {
    Correlator batched(ChurnParams());
    ApplyBatched(&batched, events, batch);
    EXPECT_EQ(want, batched.EncodeSnapshot()) << "batch=" << batch;
    EXPECT_EQ(serial.references_processed(), batched.references_processed());
  }
}

TEST(IngestEquivalence, BatchedMatchesSerialAcrossBatchSizes) {
  const std::vector<IngestEvent> events = RandomTrace(0xB0B, 2000);

  Correlator serial(ChurnParams());
  ApplySerial(&serial, events);
  const std::string want = serial.EncodeSnapshot();

  for (const size_t batch : {size_t{1}, size_t{7}, size_t{64}, size_t{4096}}) {
    Correlator batched(ChurnParams());
    ApplyBatched(&batched, events, batch);
    EXPECT_EQ(want, batched.EncodeSnapshot()) << "batch=" << batch;
  }
}

TEST(IngestEquivalence, ManySeedsManyConfigs) {
  for (const uint32_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (const bool per_process : {true, false}) {
      SeerParams params = ChurnParams();
      params.per_process_streams = per_process;

      const std::vector<IngestEvent> events = RandomTrace(seed, 1200);
      Correlator serial(params);
      ApplySerial(&serial, events);

      Correlator batched(params);
      ApplyBatched(&batched, events, 128);
      EXPECT_EQ(serial.EncodeSnapshot(), batched.EncodeSnapshot())
          << "seed=" << seed << " per_process=" << per_process;
    }
  }
}

TEST(IngestEquivalence, AlternateDistanceAndMeanKinds) {
  for (const DistanceKind dk :
       {DistanceKind::kLifetime, DistanceKind::kSequence, DistanceKind::kTemporal}) {
    for (const MeanKind mk : {MeanKind::kGeometric, MeanKind::kArithmetic}) {
      SeerParams params = ChurnParams();
      params.distance_kind = dk;
      params.mean_kind = mk;

      const std::vector<IngestEvent> events = RandomTrace(77, 1500);
      Correlator serial(params);
      ApplySerial(&serial, events);

      Correlator batched(params);
      ApplyBatched(&batched, events, 200);
      EXPECT_EQ(serial.EncodeSnapshot(), batched.EncodeSnapshot())
          << "distance_kind=" << static_cast<int>(dk)
          << " mean_kind=" << static_cast<int>(mk);
    }
  }
}

// A live `mean` override must leave the correlator exactly where a
// correlator decoded from a snapshot of the pre-override state lands after
// the same override and the same events: the cached means the replacement
// scan compares were computed under the old mean kind, so the override has
// to void them (and every row bound built from them).
TEST(IngestEquivalence, MeanOverrideMatchesADecodedCorrelator) {
  for (const uint32_t seed : {11u, 12u, 13u}) {
    for (const MeanKind to : {MeanKind::kArithmetic, MeanKind::kGeometric}) {
      SeerParams before = ChurnParams();
      before.mean_kind = to == MeanKind::kArithmetic ? MeanKind::kGeometric : MeanKind::kArithmetic;
      SeerParams after = before;
      after.mean_kind = to;
      const std::vector<IngestEvent> events = RandomTrace(seed, 3000);
      const std::vector<IngestEvent> head(events.begin(), events.begin() + 1500);
      const std::vector<IngestEvent> tail(events.begin() + 1500, events.end());

      Correlator live(before);
      ApplySerial(&live, head);
      const std::string snapshot = live.EncodeSnapshot();
      live.OverrideTuningParams(after);
      ApplySerial(&live, tail);

      auto decoded = Correlator::DecodeSnapshot(snapshot);
      ASSERT_TRUE(decoded.ok()) << decoded.status().message();
      (*decoded)->OverrideTuningParams(after);
      ApplySerial(decoded->get(), tail);
      EXPECT_EQ((*decoded)->EncodeSnapshot(), live.EncodeSnapshot())
          << "seed=" << seed << " to=" << static_cast<int>(to);
    }
  }
}

// --- the drop rule ---------------------------------------------------------------
//
// An observation that misses a full neighbour list must leave the list
// unchanged exactly when the paper's rule, recomputed from public state,
// drops it: no listed neighbour is marked deleted, no entry's mean exceeds
// the candidate's, and no entry has gone unupdated for more than
// aging_updates. The trace churns (deletes, renames onto live names,
// exclusions) and overrides the mean kind and the aging horizon mid-stream,
// so every condition that can void a cached answer occurs.

struct DropRuleCounts {
  size_t dropped = 0;
  size_t dead = 0;      // replaced a deletion-marked neighbour
  size_t farther = 0;   // replaced an entry farther than the candidate
  size_t aged = 0;      // replaced an aged entry
};

void CheckDropRule(DistanceKind kind, uint32_t seed, DropRuleCounts* counts) {
  SeerParams params = ChurnParams();
  params.distance_kind = kind;
  Correlator c(params);
  // A twin of the correlator's streams, fed the same references and
  // process events, tells which observations each reference makes.
  ReferenceStreams twin(params);
  const RelationTable& table = c.relations();
  const FileTable& files = c.files();
  const size_t cap = static_cast<size_t>(params.max_neighbors);

  const std::vector<IngestEvent> events = RandomTrace(seed, 3000);
  std::vector<std::vector<Neighbor>> before;
  std::vector<DistanceObservation> obs;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i == 700 || i == 1400 || i == 2100 || i == 2500) {
      params.mean_kind =
          params.mean_kind == MeanKind::kGeometric ? MeanKind::kArithmetic : MeanKind::kGeometric;
      params.aging_updates = i == 1400 ? 60 : 500;
      c.OverrideTuningParams(params);
      twin.OverrideParams(params);
    }
    const IngestEvent& e = events[i];
    if (e.kind != IngestEvent::Kind::kReference) {
      ApplySerial(&c, {e});
      if (e.kind == IngestEvent::Kind::kFork) {
        twin.OnFork(e.parent, e.child);
      } else if (e.kind == IngestEvent::Kind::kExit) {
        twin.OnExit(e.child);
      }
      continue;
    }
    before.assign(files.size(), {});
    for (FileId f = 0; f < files.size(); ++f) {
      for (const Neighbor& nb : table.NeighborsOf(f)) {
        before[f].push_back(nb);
      }
    }
    const uint64_t first_ordinal = table.update_count() + 1;
    c.OnReference(e.ref);
    const FileId to = files.Find(e.ref.path);
    ASSERT_NE(kInvalidFileId, to);
    obs.clear();
    switch (e.ref.kind) {
      case RefKind::kBegin:
        twin.OnBegin(e.ref.pid, to, e.ref.time, &obs);
        break;
      case RefKind::kEnd:
        twin.OnEnd(e.ref.pid, to);
        break;
      case RefKind::kPoint:
        twin.OnPoint(e.ref.pid, to, e.ref.time, &obs);
        break;
    }

    uint64_t ordinal = first_ordinal;
    std::vector<FileId> sources;
    for (const DistanceObservation& o : obs) {
      const FileRecord& from = files.Get(o.from);
      if (from.deleted || from.excluded || o.from == o.to) {
        continue;
      }
      // Each list sees at most one observation per reference, so its
      // state before the reference is its state before the observation.
      ASSERT_EQ(sources.end(), std::find(sources.begin(), sources.end(), o.from));
      sources.push_back(o.from);
      const uint64_t this_ordinal = ordinal++;
      ASSERT_LT(o.from, before.size());
      const std::vector<Neighbor>& row = before[o.from];
      const bool member = std::any_of(row.begin(), row.end(),
                                      [&](const Neighbor& nb) { return nb.id == o.to; });
      if (row.size() != cap || member) {
        continue;
      }
      bool dead = false;
      double worst = row[0].MeanDistance(params.mean_kind);
      uint64_t oldest = row[0].last_update;
      for (const Neighbor& nb : row) {
        dead = dead || files.Get(nb.id).deleted;
        worst = std::max(worst, nb.MeanDistance(params.mean_kind));
        oldest = std::min(oldest, nb.last_update);
      }
      const double floored = o.distance > 0.0 ? o.distance : params.geometric_zero_floor;
      const double candidate =
          params.mean_kind == MeanKind::kArithmetic ? o.distance : std::exp(std::log(floored));
      const bool farther = worst > candidate;
      const bool aged = this_ordinal - oldest > params.aging_updates;
      const bool drop = !dead && !farther && !aged;

      size_t k = 0;
      bool unchanged = table.NeighborsOf(o.from).size() == row.size();
      for (const Neighbor& nb : table.NeighborsOf(o.from)) {
        unchanged = unchanged && nb.id == row[k].id && nb.log_sum == row[k].log_sum &&
                    nb.linear_sum == row[k].linear_sum &&
                    nb.observations == row[k].observations &&
                    nb.last_update == row[k].last_update;
        ++k;
      }
      ASSERT_EQ(drop, unchanged) << "event=" << i << " from=" << o.from << " to=" << o.to
                                 << " distance=" << o.distance << " dead=" << dead
                                 << " farther=" << farther << " aged=" << aged;
      counts->dropped += drop;
      counts->dead += dead;
      counts->farther += !dead && farther;
      counts->aged += !dead && !farther && aged;
    }
    ASSERT_EQ(ordinal - 1, table.update_count()) << "the twin streams diverged at event " << i;
  }
}

TEST(RelationDropRule, FullListMissIsDroppedExactlyWhenTheRuleSays) {
  for (const DistanceKind kind :
       {DistanceKind::kLifetime, DistanceKind::kSequence, DistanceKind::kTemporal}) {
    DropRuleCounts counts;
    for (const uint32_t seed : {21u, 22u, 23u}) {
      CheckDropRule(kind, seed, &counts);
      ASSERT_FALSE(HasFatalFailure()) << "kind=" << static_cast<int>(kind) << " seed=" << seed;
    }
    // Every branch of the rule was taken.
    EXPECT_GT(counts.dropped, 0u) << "kind=" << static_cast<int>(kind);
    EXPECT_GT(counts.dead, 0u) << "kind=" << static_cast<int>(kind);
    EXPECT_GT(counts.farther, 0u) << "kind=" << static_cast<int>(kind);
    EXPECT_GT(counts.aged, 0u) << "kind=" << static_cast<int>(kind);
  }
}

// The resurrection cut: delete a file, then — inside ONE batch — reference
// other files (building a pending segment) and then the deleted file again.
// Interning resurrects it; the pending observations must still be filtered
// against the pre-resurrection liveness flag, exactly as serial ingest
// filters them.
TEST(IngestEquivalence, ResurrectionWithinOneBatch) {
  auto build = [](Time* time) {
    std::vector<IngestEvent> events;
    for (int round = 0; round < 5; ++round) {
      for (int i = 0; i < 6; ++i) {
        *time += kMicrosPerSecond;
        events.push_back(
            RefEvent(1, RefKind::kPoint, "/res/f" + std::to_string(i), *time));
      }
    }
    IngestEvent del;
    del.kind = IngestEvent::Kind::kDeleted;
    del.path = P("/res/f2");
    del.time = *time;
    events.push_back(del);
    // One long run with the resurrecting reference in the middle: the cut
    // must flush the first half before interning /res/f2 again.
    for (int i = 0; i < 4; ++i) {
      *time += kMicrosPerSecond;
      events.push_back(RefEvent(1, RefKind::kPoint, "/res/f" + std::to_string(i), *time));
    }
    *time += kMicrosPerSecond;
    events.push_back(RefEvent(1, RefKind::kPoint, "/res/f2", *time));
    for (int i = 0; i < 6; ++i) {
      *time += kMicrosPerSecond;
      events.push_back(RefEvent(1, RefKind::kPoint, "/res/f" + std::to_string(i), *time));
    }
    return events;
  };

  Time t1 = 0;
  Time t2 = 0;
  const std::vector<IngestEvent> trace_serial = build(&t1);
  const std::vector<IngestEvent> trace_batched = build(&t2);

  Correlator serial(ChurnParams());
  ApplySerial(&serial, trace_serial);

  Correlator batched(ChurnParams());
  // The whole trace as a single batch: the only cuts are the delete barrier
  // and the resurrection.
  batched.IngestBatch(trace_batched.data(), trace_batched.size());

  EXPECT_EQ(serial.EncodeSnapshot(), batched.EncodeSnapshot());
  EXPECT_GE(batched.ingest_stats().serial_folds, 3u);  // pre-delete, pre-resurrect, rest
}

// Fork/exit under batching: the child's inherited history and the exit
// merge-back must land between exactly the same references as under serial
// ingest, across randomized interleavings batched at awkward sizes.
TEST(IngestEquivalence, ForkMergeUnderBatching) {
  std::mt19937 rng(0xF02C);
  for (int round = 0; round < 8; ++round) {
    std::vector<IngestEvent> events;
    Time time = 0;
    const Pid parent = 1;
    const Pid child = 50 + round;

    auto ref = [&](Pid pid, int file) {
      time += kMicrosPerSecond;
      events.push_back(
          RefEvent(pid, rng() % 2 == 0 ? RefKind::kPoint : RefKind::kBegin,
                   "/fork/f" + std::to_string(file), time));
    };

    const int before = 3 + static_cast<int>(rng() % 6);
    for (int i = 0; i < before; ++i) {
      ref(parent, static_cast<int>(rng() % 8));
    }
    IngestEvent fork;
    fork.kind = IngestEvent::Kind::kFork;
    fork.parent = parent;
    fork.child = child;
    events.push_back(fork);
    const int during = 3 + static_cast<int>(rng() % 8);
    for (int i = 0; i < during; ++i) {
      ref(rng() % 2 == 0 ? parent : child, static_cast<int>(rng() % 8));
    }
    IngestEvent exit_event;
    exit_event.kind = IngestEvent::Kind::kExit;
    exit_event.child = child;
    events.push_back(exit_event);
    const int after = 3 + static_cast<int>(rng() % 6);
    for (int i = 0; i < after; ++i) {
      ref(parent, static_cast<int>(rng() % 8));
    }

    Correlator serial(ChurnParams());
    ApplySerial(&serial, events);

    for (const size_t batch : {size_t{2}, size_t{5}, events.size()}) {
      Correlator batched(ChurnParams());
      ApplyBatched(&batched, events, batch);
      EXPECT_EQ(serial.EncodeSnapshot(), batched.EncodeSnapshot())
          << "round=" << round << " batch=" << batch;
    }
  }
}

TEST(IngestEquivalence, BatchingSinkMatchesSerial) {
  const std::vector<IngestEvent> events = RandomTrace(0x51Bc, 1500);

  Correlator serial(ChurnParams());
  ApplySerial(&serial, events);

  Correlator batched(ChurnParams());
  {
    // Tiny capacity so the sink flushes many partial batches; the tail
    // flush rides the destructor.
    BatchingSink sink(&batched, 17);
    ApplySerial(&sink, events);  // BatchingSink is itself a ReferenceSink
  }
  EXPECT_EQ(serial.EncodeSnapshot(), batched.EncodeSnapshot());
  EXPECT_GT(batched.ingest_stats().batches, 1u);
}

TEST(IngestEquivalence, AsyncPipelineMatchesSerial) {
  const std::vector<IngestEvent> events = RandomTrace(0xD00D, 2000);

  Correlator serial(ChurnParams());
  ApplySerial(&serial, events);
  const std::string want = serial.EncodeSnapshot();

  // Small queue: the worker repeatedly drains full rings as batches.
  AsyncCorrelator async(ChurnParams(), 0x5ee8, /*queue_capacity=*/64);
  ApplySerial(&async, events);  // producer side of the pipeline
  const std::string got =
      async.Query([](const Correlator& c) { return c.EncodeSnapshot(); });
  EXPECT_EQ(want, got);
  EXPECT_EQ(events.size(), async.processed());
}

// BatchingSink::ApplySerial above relies on this: the sink forwards every
// callback kind, and a flush mid-stream leaves no event behind.
TEST(IngestEquivalence, IngestStatsAccounting) {
  const std::vector<IngestEvent> events = RandomTrace(0xCAFE, 1000);
  size_t refs = 0;
  size_t barriers = 0;
  for (const IngestEvent& e : events) {
    if (e.kind == IngestEvent::Kind::kReference) {
      ++refs;
    } else {
      ++barriers;
    }
  }

  Correlator batched(ChurnParams());
  ApplyBatched(&batched, events, 100);
  const IngestStats& stats = batched.ingest_stats();
  EXPECT_EQ(10u, stats.batches);
  EXPECT_EQ(barriers, stats.barriers);
  // Invalid references (none here: all paths intern) all reach segments.
  EXPECT_EQ(refs, stats.refs);
  EXPECT_GE(stats.segments, 1u);
}

// --- stripe boundaries ---------------------------------------------------------
//
// Traces that span several of the relation table's 256-file stripes (file
// ids are assigned in intern order, so referencing `files` distinct paths
// up front populates ids [0, files)), with long barrier-free runs, every
// barrier kind, and deletes/renames of files sitting right at stripe
// boundaries: long segments and cross-stripe pairs for the fold and the
// per-stripe delta stamps, run here as batch-size cases.
std::vector<IngestEvent> StripeTrace(uint32_t seed, size_t count, size_t files) {
  std::mt19937 rng(seed);
  std::vector<IngestEvent> events;
  events.reserve(count + files);

  std::vector<std::string> paths;
  paths.reserve(files);
  for (size_t i = 0; i < files; ++i) {
    paths.push_back("/stripe/f" + std::to_string(i));
  }
  std::vector<Pid> pids = {1, 2, 3, 4};
  Time time = 0;

  // Touch every path once, in order: ids come out 0..files-1, so the
  // boundary files below sit exactly at multiples of kStripeSize.
  for (size_t i = 0; i < files; ++i) {
    time += kMicrosPerSecond / 8;
    events.push_back(RefEvent(pids[i % pids.size()], RefKind::kPoint, paths[i], time));
  }

  auto rand_path = [&]() -> const std::string& {
    // Half the references cluster around stripe boundaries (ids 248..264,
    // 504..520, ...) so observation pairs straddle stripes constantly; the
    // rest spread over the whole universe.
    if (rng() % 2 == 0) {
      const size_t boundary = RelationTable::kStripeSize * (1 + rng() % (files / RelationTable::kStripeSize));
      const size_t id = boundary - 8 + rng() % 16;
      return paths[std::min(id, files - 1)];
    }
    return paths[rng() % files];
  };

  for (size_t i = 0; i < count; ++i) {
    time += kMicrosPerSecond / 4;
    const uint32_t roll = rng() % 1000;
    if (roll < 975) {
      const uint32_t kind_roll = rng() % 10;
      const RefKind kind = kind_roll < 4   ? RefKind::kBegin
                           : kind_roll < 6 ? RefKind::kEnd
                                           : RefKind::kPoint;
      events.push_back(RefEvent(pids[rng() % pids.size()], kind, rand_path(), time));
    } else if (roll < 985) {
      IngestEvent e;
      e.kind = IngestEvent::Kind::kDeleted;
      e.path = P(rand_path());
      e.time = time;
      events.push_back(e);
    } else if (roll < 992) {
      IngestEvent e;
      e.kind = IngestEvent::Kind::kRenamed;
      e.path = P(rand_path());
      e.path2 = (rng() % 2 == 0) ? P(rand_path())
                                 : P("/stripe/renamed" + std::to_string(i));
      e.time = time;
      events.push_back(e);
    } else if (roll < 996) {
      IngestEvent e;
      e.kind = IngestEvent::Kind::kFork;
      e.parent = pids[rng() % pids.size()];
      e.child = static_cast<Pid>(1000 + i);
      pids.push_back(e.child);
      events.push_back(e);
    } else if (roll < 998 && pids.size() > 2) {
      const size_t victim = rng() % pids.size();
      IngestEvent e;
      e.kind = IngestEvent::Kind::kExit;
      e.child = pids[victim];
      pids.erase(pids.begin() + victim);
      events.push_back(e);
    } else {
      IngestEvent e;
      e.kind = IngestEvent::Kind::kExcluded;
      e.path = P(rand_path());
      events.push_back(e);
    }
  }
  return events;
}

TEST(IngestEquivalence, StripeShardedFoldMatchesSerialAcrossThreadCounts) {
  // 640 files = 2.5 stripes; long barrier-free runs make long segments.
  const std::vector<IngestEvent> events = StripeTrace(0x57121BE, 4000, 640);

  Correlator serial(ChurnParams());
  ApplySerial(&serial, events);
  const std::string want = serial.EncodeSnapshot();

  for (const size_t batch : {size_t{64}, size_t{512}, size_t{1024}, size_t{4096}}) {
    Correlator batched(ChurnParams());
    ApplyBatched(&batched, events, batch);
    EXPECT_EQ(want, batched.EncodeSnapshot()) << "batch=" << batch;
  }
}

TEST(IngestEquivalence, StripeShardedFoldAcrossBatchSizesAndSeeds) {
  for (const uint32_t seed : {11u, 22u, 33u}) {
    const std::vector<IngestEvent> events = StripeTrace(seed, 2500, 512);

    Correlator serial(ChurnParams());
    ApplySerial(&serial, events);
    const std::string want = serial.EncodeSnapshot();

    for (const size_t batch : {size_t{512}, size_t{4096}}) {
      Correlator batched(ChurnParams());
      ApplyBatched(&batched, events, batch);
      EXPECT_EQ(want, batched.EncodeSnapshot()) << "seed=" << seed << " batch=" << batch;
    }
  }
}

// Observations straddling one stripe boundary, with the boundary files
// themselves deleted and renamed mid-trace: the from-file and the to-file
// live in different stripes, and the replacement scans read liveness flags
// of cross-stripe neighbors.
TEST(IngestEquivalence, StripeBoundaryStraddleWithBarriers) {
  std::vector<IngestEvent> events;
  Time time = 0;
  // Populate ids 0..299: the boundary of interest is 255|256.
  for (int i = 0; i < 300; ++i) {
    time += kMicrosPerSecond / 8;
    events.push_back(RefEvent(1, RefKind::kPoint, "/straddle/f" + std::to_string(i), time));
  }
  std::mt19937 rng(0xB0DE);
  auto boundary_path = [&](int round) {
    // Ping-pong across the boundary with a little jitter.
    const int id = (round % 2 == 0 ? 255 : 256) + static_cast<int>(rng() % 3) - 1;
    return "/straddle/f" + std::to_string(id);
  };
  for (int burst = 0; burst < 6; ++burst) {
    for (int i = 0; i < 220; ++i) {
      time += kMicrosPerSecond / 4;
      events.push_back(RefEvent(1 + (i % 2), i % 3 == 0 ? RefKind::kBegin : RefKind::kPoint,
                                boundary_path(i), time));
    }
    IngestEvent barrier;
    if (burst % 2 == 0) {
      barrier.kind = IngestEvent::Kind::kDeleted;
      barrier.path = P("/straddle/f" + std::to_string(255 + burst / 2));
    } else {
      barrier.kind = IngestEvent::Kind::kRenamed;
      barrier.path = P("/straddle/f" + std::to_string(256 - burst / 2));
      barrier.path2 = P("/straddle/moved" + std::to_string(burst));
    }
    barrier.time = time;
    events.push_back(barrier);
  }

  Correlator serial(ChurnParams());
  ApplySerial(&serial, events);
  const std::string want = serial.EncodeSnapshot();

  for (const size_t batch : {size_t{97}, events.size()}) {
    Correlator batched(ChurnParams());
    ApplyBatched(&batched, events, batch);
    EXPECT_EQ(want, batched.EncodeSnapshot()) << "batch=" << batch;
  }
}

}  // namespace
}  // namespace seer
