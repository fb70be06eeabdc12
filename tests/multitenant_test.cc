// Multi-tenant isolation and determinism.
//
// The contract of the tenant-routed server plane (src/server): interleaving
// any number of tenants over one shared ThreadPool — with checkpoints,
// budget evictions, and transparent restores mixed into the stream — leaves
// every tenant's correlator byte-identical (EncodeSnapshot) to a standalone
// single-instance Correlator fed the same events serially, at any thread
// count. Each tenant's store directory must remain an ordinary
// single-instance store readable without the router.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "src/core/correlator.h"
#include "src/core/snapshot_store.h"
#include "src/server/tenant_router.h"
#include "src/util/fs.h"

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

void ApplySerial(ReferenceSink* sink, const std::vector<IngestEvent>& events) {
  for (const IngestEvent& e : events) {
    switch (e.kind) {
      case IngestEvent::Kind::kReference:
        sink->OnReference(e.ref);
        break;
      case IngestEvent::Kind::kFork:
        sink->OnProcessFork(e.parent, e.child);
        break;
      case IngestEvent::Kind::kExit:
        sink->OnProcessExit(e.child);
        break;
      case IngestEvent::Kind::kDeleted:
        sink->OnFileDeleted(e.path, e.time);
        break;
      case IngestEvent::Kind::kRenamed:
        sink->OnFileRenamed(e.path, e.path2, e.time);
        break;
      case IngestEvent::Kind::kExcluded:
        sink->OnFileExcluded(e.path);
        break;
    }
  }
}

// Randomized per-tenant trace: references dominate, every barrier kind
// appears. All tenants draw from the SAME path universe — the process-wide
// interner is shared across tenants, so colliding PathIds are exactly the
// case isolation must survive.
std::vector<IngestEvent> TenantTrace(uint32_t seed, size_t count) {
  std::mt19937 rng(seed);
  std::vector<IngestEvent> events;
  events.reserve(count);

  std::vector<std::string> paths;
  for (int i = 0; i < 32; ++i) {
    paths.push_back("/mt/f" + std::to_string(i));
  }
  std::vector<Pid> pids = {1, 2, 3};
  Pid next_pid = 100;
  Time time = 0;

  auto rand_path = [&]() -> const std::string& { return paths[rng() % paths.size()]; };
  auto rand_pid = [&]() { return pids[rng() % pids.size()]; };

  for (size_t i = 0; i < count; ++i) {
    time += kMicrosPerSecond / 4;
    const uint32_t roll = rng() % 100;
    if (roll < 88) {
      const uint32_t kind_roll = rng() % 10;
      const RefKind kind = kind_roll < 4   ? RefKind::kBegin
                           : kind_roll < 7 ? RefKind::kEnd
                                           : RefKind::kPoint;
      events.push_back(RefEvent(rand_pid(), kind, rand_path(), time));
    } else if (roll < 92) {
      IngestEvent e;
      e.kind = IngestEvent::Kind::kFork;
      e.parent = rand_pid();
      e.child = next_pid++;
      pids.push_back(e.child);
      events.push_back(e);
    } else if (roll < 95 && pids.size() > 2) {
      const size_t victim = rng() % pids.size();
      IngestEvent e;
      e.kind = IngestEvent::Kind::kExit;
      e.child = pids[victim];
      pids.erase(pids.begin() + victim);
      events.push_back(e);
    } else if (roll < 98) {
      IngestEvent e;
      e.kind = IngestEvent::Kind::kDeleted;
      e.path = P(rand_path());
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
  p.max_neighbors = 4;
  p.distance_horizon = 20;
  p.delete_delay = 3;
  p.aging_updates = 500;
  return p;
}

// The standalone oracle: one plain Correlator fed the trace serially.
std::string StandaloneSnapshot(const std::vector<IngestEvent>& events) {
  Correlator standalone(ChurnParams());
  ApplySerial(&standalone, events);
  return standalone.EncodeSnapshot();
}

// Delivers each tenant's trace through its router sink, round-robin in
// pseudo-random chunk sizes, so tenants genuinely interleave on the shared
// pool. Optionally calls `tick` between chunks.
void Interleave(TenantRouter* router, const std::vector<std::vector<IngestEvent>>& traces,
                uint32_t seed, const std::function<void(size_t chunk_index)>& between = {}) {
  std::vector<ReferenceSink*> sinks;
  std::vector<size_t> cursor(traces.size(), 0);
  for (size_t t = 0; t < traces.size(); ++t) {
    sinks.push_back(router->SinkFor(static_cast<TenantId>(t + 1)));
  }
  std::mt19937 rng(seed);
  size_t chunk_index = 0;
  bool remaining = true;
  while (remaining) {
    remaining = false;
    for (size_t t = 0; t < traces.size(); ++t) {
      const std::vector<IngestEvent>& trace = traces[t];
      if (cursor[t] >= trace.size()) {
        continue;
      }
      const size_t n = std::min<size_t>(1 + rng() % 97, trace.size() - cursor[t]);
      const std::vector<IngestEvent> chunk(trace.begin() + cursor[t],
                                           trace.begin() + cursor[t] + n);
      ApplySerial(sinks[t], chunk);
      cursor[t] += n;
      if (cursor[t] < trace.size()) {
        remaining = true;
      }
      if (between) {
        between(chunk_index++);
      }
    }
  }
}

TenantRouterConfig BaseConfig(int threads) {
  TenantRouterConfig config;
  config.defaults = ChurnParams();
  config.threads = threads;
  return config;
}

TEST(TenantRouter, InterleavedTenantsMatchStandaloneAcrossThreadCounts) {
  constexpr size_t kTenants = 6;
  std::vector<std::vector<IngestEvent>> traces;
  std::vector<std::string> want;
  for (size_t t = 0; t < kTenants; ++t) {
    traces.push_back(TenantTrace(0x7e00 + static_cast<uint32_t>(t), 900));
    want.push_back(StandaloneSnapshot(traces.back()));
  }

  for (const int threads : {1, 2, 8}) {
    MemFs fs;
    TenantRouter router(&fs, "/srv", BaseConfig(threads));
    Interleave(&router, traces, 0xC0FFEE + static_cast<uint32_t>(threads));
    ASSERT_TRUE(router.last_error().ok()) << router.last_error().message();
    for (size_t t = 0; t < kTenants; ++t) {
      const auto correlator = router.CorrelatorFor(static_cast<TenantId>(t + 1));
      ASSERT_TRUE(correlator.ok());
      EXPECT_EQ(want[t], (*correlator)->EncodeSnapshot())
          << "tenant=" << t + 1 << " threads=" << threads;
    }
  }
}

TEST(TenantRouter, EvictRestoreCyclePreservesByteIdentity) {
  constexpr size_t kTenants = 5;
  std::vector<std::vector<IngestEvent>> traces;
  std::vector<std::string> want;
  for (size_t t = 0; t < kTenants; ++t) {
    traces.push_back(TenantTrace(0xE7 + static_cast<uint32_t>(t), 700));
    want.push_back(StandaloneSnapshot(traces[t]));
  }

  for (const int threads : {1, 8}) {
    MemFs fs;
    TenantRouter router(&fs, "/srv", BaseConfig(threads));
    // Evict a rotating victim mid-stream; its next chunk transparently
    // restores it (seal -> snapshot -> release -> recover).
    Interleave(&router, traces, 0xBEEF, [&](size_t chunk) {
      if (chunk % 3 == 0) {
        const TenantId victim = static_cast<TenantId>(1 + chunk % kTenants);
        ASSERT_TRUE(router.EvictTenant(victim).ok());
      }
    });
    ASSERT_TRUE(router.last_error().ok()) << router.last_error().message();
    EXPECT_GT(router.evictions(), 0u);
    EXPECT_GT(router.restores(), 0u);
    for (size_t t = 0; t < kTenants; ++t) {
      const auto correlator = router.CorrelatorFor(static_cast<TenantId>(t + 1));
      ASSERT_TRUE(correlator.ok());
      EXPECT_EQ(want[t], (*correlator)->EncodeSnapshot())
          << "tenant=" << t + 1 << " threads=" << threads;
    }
  }
}

TEST(TenantRouter, ShutdownLeavesStandaloneReadableStores) {
  constexpr size_t kTenants = 4;
  std::vector<std::vector<IngestEvent>> traces;
  std::vector<std::string> want;
  for (size_t t = 0; t < kTenants; ++t) {
    traces.push_back(TenantTrace(0x51a + static_cast<uint32_t>(t), 600));
    want.push_back(StandaloneSnapshot(traces[t]));
  }

  MemFs fs;
  {
    TenantRouter router(&fs, "/srv", BaseConfig(4));
    Interleave(&router, traces, 0xD1CE);
    ASSERT_TRUE(router.last_error().ok()) << router.last_error().message();
    ASSERT_TRUE(router.Shutdown().ok());
    EXPECT_EQ(0u, router.resident_tenants());
  }

  // Each tenant directory is an ordinary single-instance store: recover it
  // with no router involved and compare bytes.
  const auto tenants = SnapshotStore::ListTenants(&fs, "/srv");
  ASSERT_TRUE(tenants.ok());
  ASSERT_EQ(kTenants, tenants->size());
  for (size_t t = 0; t < kTenants; ++t) {
    EXPECT_EQ(static_cast<TenantId>(t + 1), (*tenants)[t]);
    SnapshotStore store(&fs, SnapshotStore::TenantDirectory("/srv", (*tenants)[t]));
    const auto recovered = store.Recover(ChurnParams());
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    EXPECT_EQ(want[t], recovered->correlator->EncodeSnapshot()) << "tenant=" << t + 1;
  }
}

TEST(TenantRouter, MemoryBudgetBoundsResidentTenants) {
  constexpr size_t kTenants = 12;
  constexpr size_t kMaxResident = 4;
  std::vector<std::vector<IngestEvent>> traces;
  std::vector<std::string> want;
  for (size_t t = 0; t < kTenants; ++t) {
    traces.push_back(TenantTrace(0xAB + static_cast<uint32_t>(t), 350));
    want.push_back(StandaloneSnapshot(traces[t]));
  }

  MemFs fs;
  TenantRouterConfig config = BaseConfig(4);
  config.max_resident_tenants = kMaxResident;
  TenantRouter router(&fs, "/srv", config);
  Time now = 0;
  Interleave(&router, traces, 0xFEED, [&](size_t chunk) {
    if (chunk % 4 == 0) {
      now += kMicrosPerSecond;
      ASSERT_TRUE(router.Tick(now).ok());
      EXPECT_LE(router.resident_tenants(), kMaxResident);
    }
  });
  ASSERT_TRUE(router.last_error().ok()) << router.last_error().message();
  ASSERT_TRUE(router.Tick(now + kMicrosPerSecond).ok());
  EXPECT_LE(router.resident_tenants(), kMaxResident);
  EXPECT_GT(router.evictions(), 0u);

  // Budget pressure must never bend the state: every tenant — evicted and
  // restored who knows how many times — still matches its standalone run.
  for (size_t t = 0; t < kTenants; ++t) {
    const auto correlator = router.CorrelatorFor(static_cast<TenantId>(t + 1));
    ASSERT_TRUE(correlator.ok());
    EXPECT_EQ(want[t], (*correlator)->EncodeSnapshot()) << "tenant=" << t + 1;
  }
}

TEST(TenantRouter, StaggeredSchedulerBoundsInflightCheckpoints) {
  constexpr size_t kTenants = 10;
  std::vector<std::vector<IngestEvent>> traces;
  for (size_t t = 0; t < kTenants; ++t) {
    traces.push_back(TenantTrace(0x9a + static_cast<uint32_t>(t), 250));
  }

  MemFs fs;
  TenantRouterConfig config = BaseConfig(4);
  config.checkpoint_interval = kMicrosPerSecond;  // everyone is soon due
  config.max_checkpoints_inflight = 2;
  TenantRouter router(&fs, "/srv", config);
  Interleave(&router, traces, 0x7ead);
  ASSERT_TRUE(router.last_error().ok()) << router.last_error().message();

  Time now = 0;
  for (int tick = 0; tick < 200 && router.checkpoints_harvested() < kTenants; ++tick) {
    now += kMicrosPerSecond;
    ASSERT_TRUE(router.Tick(now).ok());
    EXPECT_LE(router.checkpoints_inflight(), config.max_checkpoints_inflight);
    // Deterministic progress: block until the started pair completes, so
    // the next tick has free slots (Tick itself never blocks).
    ASSERT_TRUE(router.DrainCheckpoints().ok());
  }
  EXPECT_GE(router.checkpoints_harvested(), kTenants);
  EXPECT_EQ(router.checkpoints_inflight(),
            router.checkpoints_started() - router.checkpoints_harvested());
  EXPECT_EQ(router.seal_stall_micros().size(),
            std::min<uint64_t>(router.checkpoints_harvested(), TenantRouter::kSealStallWindow));
}

TEST(TenantRouter, HoardDaemonRefillsOnRouterCadence) {
  MemFs fs;
  TenantRouterConfig config = BaseConfig(2);
  config.hoard_budget_bytes = 1 << 20;
  config.hoard_interval = kMicrosPerSecond;
  config.size_of = [](PathId) -> uint64_t { return 4096; };
  TenantRouter router(&fs, "/srv", config);

  std::vector<std::vector<IngestEvent>> traces;
  traces.push_back(TenantTrace(0x40a, 500));
  Interleave(&router, traces, 0x111);
  // A strong investigated relation guarantees at least one project for the
  // refill's cluster pass to hoard (as in hoard_daemon_test).
  {
    const auto correlator = router.CorrelatorFor(1);
    ASSERT_TRUE(correlator.ok());
    for (int i = 0; i < 3; ++i) {
      InvestigatedRelation rel;
      rel.files = {"/mt/f0", "/mt/f1"};
      rel.strength = 50.0;
      (*correlator)->AddInvestigatedRelation(rel);
    }
  }
  ASSERT_TRUE(router.Tick(10 * kMicrosPerSecond).ok());

  const auto stats = router.Stats(1);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->resident);
  EXPECT_EQ(1u, stats->refills);
  EXPECT_GT(stats->hoard_files, 0u);
  EXPECT_GT(stats->references, 0u);
  EXPECT_GT(stats->memory_bytes, 0u);
}

// A Tick's refill chooses from every event already routed to the tenant.
// Tick(1) runs before tenant 1's first checkpoint is due (its stagger
// phase), so nothing but the sink itself can have applied the events.
TEST(TenantRouter, RefillSeesRoutedEvents) {
  MemFs fs;
  TenantRouterConfig config = BaseConfig(2);
  config.hoard_budget_bytes = 1 << 20;
  config.size_of = [](PathId) -> uint64_t { return 4096; };
  TenantRouter router(&fs, "/srv", config);

  ReferenceSink* sink = router.SinkFor(1);
  for (int i = 0; i < 20; ++i) {
    FileReference ref;
    ref.pid = 1;
    ref.kind = RefKind::kPoint;
    ref.path = P("/routed/f" + std::to_string(i % 5));
    ref.time = (i + 1) * kMicrosPerSecond;
    sink->OnReference(ref);
  }
  ASSERT_TRUE(router.Tick(1).ok());

  const auto stats = router.Stats(1);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(1u, stats->refills);
  EXPECT_EQ(5u, stats->files);
  EXPECT_EQ(5u, stats->hoard_files);
}

// The transport's WAL trigger: AfterDelivery flags a tenant once its WAL
// reaches wal_checkpoint_bytes and wakes the caller once per crossing; the
// flag alone makes the next TickTenants start a checkpoint, whose
// completion wakes again, and the folded WAL re-arms the trigger.
TEST(TenantRouter, AfterDeliveryWakesOncePerWalCrossing) {
  MemFs fs;
  TenantRouterConfig config = BaseConfig(2);
  config.checkpoint_interval = 1000 * kMicrosPerHour;  // no timer is due
  config.wal_checkpoint_bytes = 512;
  std::atomic<int> wakes{0};  // a finished checkpoint wakes from its own thread
  TenantRouter router(&fs, "/srv", config, [&wakes] { ++wakes; });

  ReferenceSink* sink = router.SinkFor(1);
  int sent = 0;
  const auto deliver = [&] {
    FileReference ref;
    ref.pid = 1;
    ref.kind = RefKind::kPoint;
    ref.path = P("/wal/f" + std::to_string(sent % 7));
    ref.time = ++sent * kMicrosPerSecond;
    sink->OnReference(ref);
    router.AfterDelivery(1);
  };
  const auto wal_bytes = [&router] { return router.Stats(1)->wal_bytes; };

  while (wal_bytes() < config.wal_checkpoint_bytes) {
    ASSERT_EQ(0, wakes.load()) << "woken before the WAL reached the threshold";
    deliver();
  }
  EXPECT_EQ(1, wakes.load());
  deliver();
  deliver();
  EXPECT_EQ(1, wakes.load()) << "woken again within one crossing";

  ASSERT_TRUE(router.TickTenants(1).ok());
  ASSERT_TRUE(router.DrainCheckpoints().ok());
  EXPECT_EQ(1u, router.Stats(1)->checkpoints);
  EXPECT_EQ(2, wakes.load()) << "the finished checkpoint did not wake";

  ASSERT_LT(wal_bytes(), config.wal_checkpoint_bytes);
  while (wal_bytes() < config.wal_checkpoint_bytes) {
    deliver();
  }
  EXPECT_EQ(3, wakes.load());
}

TEST(TenantRouter, TenantDirectoryLayout) {
  EXPECT_EQ("/srv/tenant-00000007", SnapshotStore::TenantDirectory("/srv", 7));
  EXPECT_EQ("/srv/tenant-12345678", SnapshotStore::TenantDirectory("/srv", 12345678));
  // Ids >= 1e8 outgrow the %08u padding; the directory name simply widens
  // and ListTenants must still round-trip the full uint32 range.
  EXPECT_EQ("/srv/tenant-123456789", SnapshotStore::TenantDirectory("/srv", 123456789));
  EXPECT_EQ("/srv/tenant-4294967294", SnapshotStore::TenantDirectory("/srv", 4294967294u));

  MemFs fs;
  ASSERT_TRUE(fs.MakeDirs("/srv/tenant-00000003").ok());
  ASSERT_TRUE(fs.MakeDirs("/srv/tenant-00000001").ok());
  ASSERT_TRUE(fs.MakeDirs("/srv/tenant-123456789").ok());
  ASSERT_TRUE(fs.MakeDirs("/srv/tenant-4294967294").ok());
  ASSERT_TRUE(fs.MakeDirs("/srv/not-a-tenant").ok());
  ASSERT_TRUE(fs.MakeDirs("/srv/tenant-junk").ok());
  ASSERT_TRUE(fs.MakeDirs("/srv/tenant-99999999999").ok());  // > 10 digits: not a tenant
  const auto tenants = SnapshotStore::ListTenants(&fs, "/srv");
  ASSERT_TRUE(tenants.ok());
  EXPECT_EQ((std::vector<TenantId>{1, 3, 123456789, 4294967294u}), *tenants);

  const auto empty = SnapshotStore::ListTenants(&fs, "/absent");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(TenantRouter, InvalidTenantIdNeverMaterialisesAStore) {
  MemFs fs;
  TenantRouter router(&fs, "/srv", BaseConfig(1));
  ReferenceSink* sink = router.SinkFor(kInvalidTenantId);
  ASSERT_NE(nullptr, sink);
  sink->OnReference(FileReference{1, RefKind::kPoint, P("/mt/f0"), kMicrosPerSecond, false});
  EXPECT_FALSE(router.last_error().ok());
  EXPECT_FALSE(fs.Exists(SnapshotStore::TenantDirectory("/srv", kInvalidTenantId)));
  EXPECT_FALSE(router.CorrelatorFor(kInvalidTenantId).ok());
  EXPECT_FALSE(router.CheckpointTenant(kInvalidTenantId).ok());
}

TEST(TenantRouter, TickSurvivesPersistentEvictionFailure) {
  // Count the mutating ops a clean two-tenant ingest performs, then replay
  // the identical ingest over a filesystem that fails every op afterwards
  // (a disk gone read-only). The eviction pass must give up for the tick —
  // returning the error instead of re-selecting the same unevictable
  // victim forever — and must not debit resident_bytes for memory that
  // was never freed.
  std::vector<std::vector<IngestEvent>> traces;
  traces.push_back(TenantTrace(0xF00, 300));
  traces.push_back(TenantTrace(0xF01, 300));

  TenantRouterConfig config = BaseConfig(1);
  config.max_resident_tenants = 1;

  uint64_t clean_ops = 0;
  {
    MemFs mem;
    FaultFs counting(&mem);
    TenantRouter router(&counting, "/srv", config);
    Interleave(&router, traces, 0x5eed);
    ASSERT_TRUE(router.last_error().ok()) << router.last_error().message();
    clean_ops = counting.op_count();
  }

  MemFs mem;
  FaultFs::Plan plan;
  plan.crash_at_op = clean_ops;  // the first post-ingest write fails, forever
  FaultFs fs(&mem, plan);
  TenantRouter router(&fs, "/srv", config);
  Interleave(&router, traces, 0x5eed);
  ASSERT_TRUE(router.last_error().ok()) << router.last_error().message();

  const Status ticked = router.Tick(kMicrosPerSecond);
  EXPECT_FALSE(ticked.ok());
  EXPECT_EQ(0u, router.evictions());
  EXPECT_EQ(2u, router.resident_tenants());
  uint64_t sum = 0;
  for (const TenantId tenant : {TenantId{1}, TenantId{2}}) {
    const auto stats = router.Stats(tenant);
    ASSERT_TRUE(stats.ok());
    EXPECT_TRUE(stats->resident);
    sum += stats->memory_bytes;
  }
  EXPECT_EQ(router.resident_bytes(), sum);
}

// Tick recomputes a tenant's MemoryBytes(), file count and generation
// only when something marked the tenant changed since the previous pass.
// After every kind of mutation, the cached accounting must still equal a
// fresh reading of every resident tenant.
TEST(TenantRouter, MemoryAccountingExactAfterEveryMutation) {
  constexpr size_t kTenants = 3;
  MemFs fs;
  TenantRouterConfig config = BaseConfig(2);
  config.hoard_budget_bytes = 1 << 20;
  config.hoard_interval = 100 * kMicrosPerSecond;
  config.size_of = [](PathId) -> uint64_t { return 4096; };
  TenantRouter router(&fs, "/srv", config);

  std::vector<std::vector<IngestEvent>> traces;
  for (size_t t = 0; t < kTenants; ++t) {
    traces.push_back(TenantTrace(0xACC0 + static_cast<uint32_t>(t), 300));
  }
  Time now = kMicrosPerSecond;
  const auto tick_and_check = [&](const std::string& step) {
    ASSERT_TRUE(router.Tick(now).ok()) << step;
    uint64_t sum = 0;
    for (const TenantId id : router.ListTenants()) {
      const auto stats = router.Stats(id);
      ASSERT_TRUE(stats.ok()) << step;
      if (!stats->resident) {
        EXPECT_EQ(0u, stats->memory_bytes) << step << " tenant=" << id;
        continue;
      }
      const auto correlator = router.CorrelatorFor(id);
      ASSERT_TRUE(correlator.ok()) << step;
      EXPECT_EQ((*correlator)->MemoryBytes(), stats->memory_bytes) << step << " tenant=" << id;
      EXPECT_EQ((*correlator)->files().size(), stats->files) << step << " tenant=" << id;
      sum += stats->memory_bytes;
    }
    EXPECT_EQ(sum, router.resident_bytes()) << step;
    // The reads above marked every tenant; settle those marks so the next
    // mutation is the only thing that can mark its tenant.
    ASSERT_TRUE(router.Tick(now).ok()) << step;
  };
  const auto files_of = [&](TenantId id) {
    const auto stats = router.Stats(id);
    return stats.ok() ? stats->files : 0;
  };

  // First delivery creates each tenant; later routed callbacks reach
  // settled tenants, and their events sit in the batcher until the pass
  // reads the correlator.
  Interleave(&router, traces, 0xACC);
  tick_and_check("first delivery");
  const uint64_t routed_before = files_of(2);
  for (size_t t = 0; t < kTenants; ++t) {
    ApplySerial(router.SinkFor(static_cast<TenantId>(t + 1)),
                {RefEvent(1, RefKind::kPoint, "/acct/routed0", now),
                 RefEvent(1, RefKind::kPoint, "/acct/routed1", now + 1)});
  }
  tick_and_check("routed callbacks");
  EXPECT_EQ(routed_before + 2, files_of(2));

  // Investigated relations intern files without appending to the WAL.
  const uint64_t files_before = files_of(1);
  {
    const auto correlator = router.CorrelatorFor(1);
    ASSERT_TRUE(correlator.ok());
    InvestigatedRelation rel;
    rel.files = {"/acct/new0", "/acct/new1", "/acct/new2"};
    rel.strength = 50.0;
    (*correlator)->AddInvestigatedRelation(rel);
  }
  tick_and_check("CorrelatorFor + AddInvestigatedRelation");
  EXPECT_EQ(files_before + 3, files_of(1));

  // A refill (every tenant is due once the hoard interval passes).
  now += config.hoard_interval;
  tick_and_check("refill");
  for (const TenantId id : router.ListTenants()) {
    EXPECT_GE(router.Stats(id)->refills, 2u) << "tenant=" << id;
  }

  // A checkpoint harvest: a Tick past every staggered due time begins
  // checkpoints (up to the in-flight budget), draining harvests them.
  now += config.checkpoint_interval;
  ASSERT_TRUE(router.Tick(now).ok());
  ASSERT_TRUE(router.DrainCheckpoints().ok());
  EXPECT_GT(router.checkpoints_harvested(), 0u);
  tick_and_check("checkpoint harvest");

  // Evict, then restore through a routed callback.
  ASSERT_TRUE(router.EvictTenant(2).ok());
  tick_and_check("evict");
  ApplySerial(router.SinkFor(2), {RefEvent(1, RefKind::kPoint, "/acct/back", now)});
  tick_and_check("restore");
  EXPECT_TRUE(router.Stats(2)->resident);

  // Live params override.
  ASSERT_TRUE(router.SetTenantParams(3, "aging-updates 7\n").ok());
  tick_and_check("SetTenantParams");
  ASSERT_TRUE(router.last_error().ok()) << router.last_error().message();
}

// Copies every file under `dir` from one Fs to another: what a crash at
// this instant leaves behind (MemFs holds no unsynced data).
void CopyTree(Fs* from, const std::string& dir, Fs* to) {
  ASSERT_TRUE(to->MakeDirs(dir).ok());
  const auto names = from->ListDir(dir);
  ASSERT_TRUE(names.ok()) << names.status().message();
  for (const std::string& name : *names) {
    const std::string path = dir + "/" + name;
    const auto bytes = from->ReadFile(path);
    if (bytes.ok()) {
      ASSERT_TRUE(to->WriteFile(path, *bytes).ok());
    } else {
      CopyTree(from, path, to);
    }
  }
}

// A live params override is a WAL boundary: recovery replays the WAL under
// the params of the snapshot it starts from, so events that followed the
// override must not sit in a WAL begun under the old params. A crash right
// after them must recover the live correlator byte for byte. `mean` also
// needs the override to void the cached means the live table compares.
TEST(CrashRecovery, TenantParamsOverrideIsAWalBoundary) {
  for (const char* text : {"aging-updates 7\n", "mean arithmetic\n"}) {
    for (const uint32_t seed : {0x0Au, 0x0Du, 0x0Fu}) {
      MemFs fs;
      TenantRouterConfig config = BaseConfig(1);
      config.store_options.wal_flush_bytes = 1;  // every record reaches the Fs
      TenantRouter router(&fs, "/srv", config);
      const std::vector<IngestEvent> trace = TenantTrace(seed, 1200);
      const std::vector<IngestEvent> head(trace.begin(), trace.begin() + 600);
      const std::vector<IngestEvent> tail(trace.begin() + 600, trace.end());

      ApplySerial(router.SinkFor(1), head);
      ASSERT_TRUE(router.CheckpointTenant(1).ok());
      ASSERT_TRUE(router.SetTenantParams(1, text).ok());
      ApplySerial(router.SinkFor(1), tail);
      ASSERT_TRUE(router.last_error().ok()) << router.last_error().message();

      MemFs crashed;
      CopyTree(&fs, "/srv", &crashed);
      ASSERT_FALSE(HasFatalFailure());
      TenantRouter recovered(&crashed, "/srv", config);
      const auto want = router.CorrelatorFor(1);
      const auto got = recovered.CorrelatorFor(1);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok()) << recovered.last_error().message();
      EXPECT_EQ((*want)->EncodeSnapshot(), (*got)->EncodeSnapshot())
          << "override=" << text << " seed=" << seed;
    }
  }
}

TEST(TenantRouter, SinkAddressStableAcrossEviction) {
  MemFs fs;
  TenantRouter router(&fs, "/srv", BaseConfig(2));
  ReferenceSink* sink = router.SinkFor(42);
  ASSERT_NE(nullptr, sink);
  EXPECT_EQ(sink, router.SinkFor(42));

  std::vector<std::vector<IngestEvent>> traces;
  sink->OnReference(FileReference{1, RefKind::kPoint, P("/mt/f0"), kMicrosPerSecond, false});
  ASSERT_TRUE(router.EvictTenant(42).ok());
  EXPECT_EQ(sink, router.SinkFor(42));  // address survives eviction
  // Next event transparently restores the tenant.
  sink->OnReference(FileReference{1, RefKind::kPoint, P("/mt/f1"), 2 * kMicrosPerSecond, false});
  ASSERT_TRUE(router.last_error().ok()) << router.last_error().message();
  const auto stats = router.Stats(42);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->resident);
  EXPECT_EQ(1u, stats->evictions);
  EXPECT_EQ(1u, stats->restores);
  EXPECT_EQ(2u, stats->references);
}

}  // namespace
}  // namespace seer
