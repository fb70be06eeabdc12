// Tests for the stall-free checkpoint plane: sectioned v2 framing and its
// META header, thread-count-invariant parallel encode, delta
// chain recovery byte-equality against the serial full path, a durable
// correlator without a pool starting no threads, async begin/finish
// checkpointing, and per-section damage diagnosis.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/correlator.h"
#include "src/core/durable_correlator.h"
#include "src/core/snapshot_codec.h"
#include "src/core/snapshot_store.h"
#include "src/util/fs.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace seer {
namespace {

PathId P(std::string_view path) { return GlobalPaths().Intern(path); }

FileReference Ref(Pid pid, const std::string& path, Time time) {
  FileReference r;
  r.pid = pid;
  r.kind = RefKind::kPoint;
  r.path = P(path);
  r.time = time;
  return r;
}

std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "seer_ckpt_plane_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// A deterministic pseudo-random event mix: many processes over many files
// with forks, exits, renames, deletions, and exclusions sprinkled in, so
// every section of the snapshot carries real weight.
void FeedRandomEvents(ReferenceSink* sink, std::mt19937* rng, int events, Time* t) {
  std::uniform_int_distribution<int> file_dist(0, 199);
  std::uniform_int_distribution<int> pid_dist(1, 12);
  std::uniform_int_distribution<int> kind_dist(0, 99);
  for (int i = 0; i < events; ++i) {
    const int k = kind_dist(*rng);
    const std::string path = "/w/d" + std::to_string(file_dist(*rng) % 17) + "/f" +
                             std::to_string(file_dist(*rng));
    if (k < 88) {
      sink->OnReference(Ref(pid_dist(*rng), path, *t += kMicrosPerSecond));
    } else if (k < 92) {
      const Pid parent = pid_dist(*rng);
      sink->OnProcessFork(parent, 1000 + i);
      sink->OnReference(Ref(1000 + i, path, *t += kMicrosPerSecond));
      sink->OnProcessExit(1000 + i);
    } else if (k < 95) {
      sink->OnFileRenamed(P(path), P(path + ".moved" + std::to_string(i)),
                          *t += kMicrosPerSecond);
    } else if (k < 98) {
      sink->OnFileDeleted(P(path), *t += kMicrosPerSecond);
    } else {
      sink->OnFileExcluded(P(path));
    }
  }
}

// --- format -------------------------------------------------------------------

TEST(CheckpointPlane, V2FullRoundTripsByteIdentically) {
  Correlator original;
  Time t = 0;
  std::mt19937 rng(11);
  FeedRandomEvents(&original, &rng, 600, &t);

  const std::string v2 = original.EncodeSnapshot();
  ASSERT_EQ(v2.substr(0, 8), "SEERSNP2");
  const auto decoded = Correlator::DecodeSnapshot(v2);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ((*decoded)->EncodeSnapshot(), v2);
}

TEST(CheckpointPlane, EncodeIsThreadCountInvariant) {
  Correlator correlator;
  Time t = 0;
  std::mt19937 rng(13);
  FeedRandomEvents(&correlator, &rng, 800, &t);

  const SealedSnapshot seal = correlator.SealSnapshot();
  const std::string serial = EncodeSealedSnapshot(seal, nullptr);
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(EncodeSealedSnapshot(seal, &pool), serial)
        << "encode diverged at " << threads << " threads";
  }
}

TEST(CheckpointPlane, MetaDescribesTheSnapshot) {
  Correlator correlator;
  Time t = 0;
  correlator.OnReference(Ref(1, "/m/a", t += kMicrosPerSecond));
  correlator.OnReference(Ref(1, "/m/b", t += kMicrosPerSecond));

  const auto meta = ReadSnapshotMeta(correlator.EncodeSnapshot());
  ASSERT_TRUE(meta.ok()) << meta.status();
  EXPECT_EQ(meta->version, 2u);
  EXPECT_FALSE(meta->delta);
  EXPECT_EQ(meta->file_count, correlator.files().size());
}

// --- delta chains vs the serial full path -----------------------------------

// The core property of the delta plane: recovering base + deltas from the
// store reproduces, byte for byte, the state the serial full encode
// describes — across randomized workloads and decode thread counts.
TEST(CheckpointPlane, DeltaChainRecoveryMatchesFullSnapshot) {
  RealFs fs;
  for (const uint32_t seed : {3u, 17u, 29u}) {
    const std::string dir = ScratchDir("chain_eq_" + std::to_string(seed));
    SnapshotStoreOptions options;
    options.full_checkpoint_every = 4;
    auto opened = DurableCorrelator::Open(&fs, dir, {}, options);
    ASSERT_TRUE(opened.ok()) << opened.status();
    DurableCorrelator& durable = **opened;

    std::mt19937 rng(seed);
    Time t = 0;
    std::uniform_int_distribution<int> burst(50, 300);
    for (int round = 0; round < 6; ++round) {
      FeedRandomEvents(&durable, &rng, burst(rng), &t);
      ASSERT_TRUE(durable.Checkpoint().ok()) << "seed " << seed << " round " << round;
    }
    const std::string live = durable.correlator().EncodeSnapshot();

    // The store's own recovery (nothing in the WAL after the last
    // checkpoint, so this is pure chain folding).
    const auto recovered = durable.store().Recover();
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(recovered->correlator->EncodeSnapshot(), live) << "seed " << seed;

    // And the chain decode directly, at several thread counts.
    const auto files = durable.store().ListSnapshotFiles();
    ASSERT_TRUE(files.ok());
    size_t first = files->size() - 1;
    while ((*files)[first].delta) {
      ASSERT_GT(first, 0u);
      --first;
    }
    ASSERT_LT(first, files->size() - 1) << "workload produced no delta chain";
    std::vector<std::string> chain_bytes;
    for (size_t k = first; k < files->size(); ++k) {
      const auto& info = (*files)[k];
      const auto bytes = fs.ReadFile(info.delta ? durable.store().DeltaPath(info.generation)
                                                : durable.store().SnapshotPath(info.generation));
      ASSERT_TRUE(bytes.ok());
      chain_bytes.push_back(*bytes);
    }
    const std::vector<std::string_view> views(chain_bytes.begin(), chain_bytes.end());
    for (const int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      const auto folded = Correlator::DecodeSnapshotChain(views, &pool);
      ASSERT_TRUE(folded.ok()) << folded.status();
      EXPECT_EQ((*folded)->EncodeSnapshot(), live)
          << "seed " << seed << " threads " << threads;
    }
  }
}

// A WAL tail on top of a delta-chain head must replay too.
TEST(CheckpointPlane, ChainPlusWalTailRecoversEverything) {
  RealFs fs;
  const std::string dir = ScratchDir("chain_wal_tail");
  SnapshotStoreOptions options;
  options.full_checkpoint_every = 3;
  auto opened = DurableCorrelator::Open(&fs, dir, {}, options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  DurableCorrelator& durable = **opened;

  std::mt19937 rng(41);
  Time t = 0;
  for (int round = 0; round < 4; ++round) {
    FeedRandomEvents(&durable, &rng, 150, &t);
    ASSERT_TRUE(durable.Checkpoint().ok());
  }
  FeedRandomEvents(&durable, &rng, 120, &t);  // tail: only in the WAL
  ASSERT_TRUE(durable.Sync().ok());
  const std::string live = durable.correlator().EncodeSnapshot();

  const auto recovered = durable.store().Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_GT(recovered->wal_records_replayed, 0u);
  EXPECT_EQ(recovered->correlator->EncodeSnapshot(), live);
}

// Threads of this process, counted in /proc/self/task; -1 where that
// directory cannot be read.
int ProcessThreads() {
  std::error_code ec;
  int count = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end; !ec && it != end;
       it.increment(ec)) {
    ++count;
  }
  return ec ? -1 : count;
}

// A durable correlator opened without a pool starts no thread: recovery
// decode, cluster builds and synchronous checkpoint encodes all run on the
// calling thread.
TEST(CheckpointPlane, StandaloneDurableStartsNoThreads) {
  const int before = ProcessThreads();
  if (before < 0) {
    GTEST_SKIP() << "cannot count threads: /proc/self/task is unreadable";
  }
  RealFs fs;
  const std::string dir = ScratchDir("no_threads");
  auto opened = DurableCorrelator::Open(&fs, dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  DurableCorrelator& durable = **opened;
  EXPECT_LE(ProcessThreads(), before) << "after Open";

  std::mt19937 rng(17);
  Time t = 0;
  FeedRandomEvents(&durable, &rng, 300, &t);
  EXPECT_FALSE(durable.correlator().BuildClusters().clusters.empty());
  EXPECT_LE(ProcessThreads(), before) << "after BuildClusters";
  ASSERT_TRUE(durable.Checkpoint().ok());
  EXPECT_LE(ProcessThreads(), before) << "after Checkpoint";
}

// --- async checkpointing ----------------------------------------------------

TEST(CheckpointPlane, AsyncCheckpointOverlapsIngest) {
  RealFs fs;
  const std::string dir = ScratchDir("async");
  auto opened = DurableCorrelator::Open(&fs, dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  DurableCorrelator& durable = **opened;

  std::mt19937 rng(5);
  Time t = 0;
  FeedRandomEvents(&durable, &rng, 500, &t);

  const uint64_t before = durable.generation();
  ASSERT_TRUE(durable.BeginCheckpoint().ok());
  EXPECT_TRUE(durable.checkpoint_in_flight());
  EXPECT_GT(durable.generation(), before) << "WAL rotates before the encode finishes";

  // Ingest keeps going while the encode/write runs behind us; these events
  // land in the new generation's WAL.
  FeedRandomEvents(&durable, &rng, 300, &t);
  ASSERT_TRUE(durable.Sync().ok());
  const std::string live = durable.correlator().EncodeSnapshot();

  ASSERT_TRUE(durable.FinishCheckpoint().ok());
  EXPECT_FALSE(durable.checkpoint_in_flight());
  const CheckpointStats& stats = durable.last_checkpoint_stats();
  EXPECT_EQ(stats.generation, durable.generation());
  EXPECT_TRUE(stats.delta) << "rides the genesis full written by Open()";
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GT(stats.delta_ratio, 0.0);

  // Recovery folds the async snapshot plus the WAL tail written during it.
  const auto recovered = durable.store().Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->correlator->EncodeSnapshot(), live);
  EXPECT_TRUE(durable.store().Verify().ok());
}

TEST(CheckpointPlane, BeginCheckpointSettlesThePreviousOne) {
  RealFs fs;
  const std::string dir = ScratchDir("async_chain");
  SnapshotStoreOptions options;
  options.full_checkpoint_every = 4;
  auto opened = DurableCorrelator::Open(&fs, dir, {}, options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  DurableCorrelator& durable = **opened;

  std::mt19937 rng(23);
  Time t = 0;
  for (int round = 0; round < 5; ++round) {
    FeedRandomEvents(&durable, &rng, 200, &t);
    ASSERT_TRUE(durable.BeginCheckpoint().ok()) << "round " << round;
  }
  ASSERT_TRUE(durable.FinishCheckpoint().ok());
  // Back-to-back Begins produced a healthy base+delta store.
  const auto files = durable.store().ListSnapshotFiles();
  ASSERT_TRUE(files.ok());
  bool any_delta = false;
  for (const auto& f : *files) {
    any_delta |= f.delta;
  }
  EXPECT_TRUE(any_delta);
  EXPECT_TRUE(durable.store().Verify(/*deep=*/true).ok());

  const std::string live = durable.correlator().EncodeSnapshot();
  const auto recovered = durable.store().Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->correlator->EncodeSnapshot(), live);
}

// --- damage diagnosis -------------------------------------------------------

TEST(CheckpointPlane, VerifyNamesTheDamagedSection) {
  Correlator correlator;
  Time t = 0;
  std::mt19937 rng(31);
  FeedRandomEvents(&correlator, &rng, 300, &t);
  std::string bytes = correlator.EncodeSnapshot();

  const auto sections = snapshot_internal::ParseSections(bytes);
  ASSERT_TRUE(sections.ok()) << sections.status();
  ASSERT_GT(sections->size(), 3u);
  // Flip one payload byte of the third section; the error must name it by
  // fourcc and ordinal, not just "corrupt".
  const auto& victim = (*sections)[2];
  ASSERT_FALSE(victim.payload.empty());
  const size_t offset = static_cast<size_t>(victim.payload.data() - bytes.data());
  bytes[offset] ^= 0x40;

  const Status status = VerifySnapshotSections(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bad crc in section"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find(snapshot_internal::FourCc(victim.tag)), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("#2"), std::string::npos) << status.message();
}

TEST(CheckpointPlane, StoreVerifyReportsDamagedChainFile) {
  RealFs fs;
  const std::string dir = ScratchDir("verify_deep");
  SnapshotStoreOptions options;
  options.full_checkpoint_every = 3;
  auto opened = DurableCorrelator::Open(&fs, dir, {}, options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  DurableCorrelator& durable = **opened;
  std::mt19937 rng(37);
  Time t = 0;
  // Genesis full, deltas at 2/3, full at 4, delta head at 5 — so the
  // newest chain is full-4 + delta-5 and damaging the head delta breaks it.
  for (int round = 0; round < 4; ++round) {
    FeedRandomEvents(&durable, &rng, 150, &t);
    ASSERT_TRUE(durable.Checkpoint().ok());
  }
  ASSERT_TRUE(durable.store().Verify(/*deep=*/true).ok());

  // Damage a delta in the newest chain: shallow Verify (which folds the
  // newest chain) and deep Verify must both fail, naming a section.
  const auto files = durable.store().ListSnapshotFiles();
  ASSERT_TRUE(files.ok());
  std::string delta_path;
  for (const auto& f : *files) {
    if (f.delta) {
      delta_path = durable.store().DeltaPath(f.generation);
    }
  }
  ASSERT_FALSE(delta_path.empty());
  auto bytes = fs.ReadFile(delta_path);
  ASSERT_TRUE(bytes.ok());
  std::string damaged = *bytes;
  damaged[damaged.size() / 2] ^= 0x01;
  ASSERT_TRUE(fs.WriteFile(delta_path, damaged).ok());

  const Status shallow = durable.store().Verify();
  EXPECT_FALSE(shallow.ok());
  const Status deep = durable.store().Verify(/*deep=*/true);
  EXPECT_FALSE(deep.ok());
  // Recovery still works — it falls back past the damaged head.
  const auto recovered = durable.store().Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_GT(recovered->snapshots_discarded, 0u);
}

}  // namespace
}  // namespace seer
