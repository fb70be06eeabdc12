// Tests for automated periodic hoard filling (Section 2).
#include "src/core/hoard_daemon.h"

#include <algorithm>
#include <filesystem>

#include <gtest/gtest.h>

#include "src/core/durable_correlator.h"
#include "src/util/fs.h"

namespace seer {
namespace {

FileReference Ref(Pid pid, RefKind kind, const std::string& path, Time time) {
  FileReference r;
  r.pid = pid;
  r.kind = kind;
  r.path = GlobalPaths().Intern(path);
  r.time = time;
  return r;
}

class HoardDaemonTest : public ::testing::Test {
 protected:
  HoardDaemonTest()
      : observer_(ObserverConfig{}, nullptr),
        manager_(1'000'000),
        daemon_(&correlator_, &observer_, &manager_, &miss_log_,
                [this](const std::vector<std::string>& target) {
                  installed_.clear();
                  installed_.insert(target.begin(), target.end());
                  ++installs_;
                },
                [](PathId) -> uint64_t { return 100; }, MakeConfig()) {
    // A small active project.
    for (int i = 0; i < 3; ++i) {
      InvestigatedRelation rel;
      rel.files = {"/p/a", "/p/b"};
      rel.strength = 50.0;
      correlator_.AddInvestigatedRelation(rel);
      correlator_.OnReference(Ref(1, RefKind::kPoint, "/p/a", i * 10 + 1));
      correlator_.OnReference(Ref(1, RefKind::kPoint, "/p/b", i * 10 + 2));
    }
  }

  static HoardDaemon::Config MakeConfig() {
    HoardDaemon::Config config;
    config.interval = kMicrosPerHour;
    return config;
  }

  Correlator correlator_;
  Observer observer_;
  HoardManager manager_;
  MissLog miss_log_;
  std::set<std::string> installed_;
  size_t installs_ = 0;
  HoardDaemon daemon_;
};

TEST_F(HoardDaemonTest, FirstTickFills) {
  EXPECT_TRUE(daemon_.MaybeRefill(0));
  EXPECT_EQ(installs_, 1u);
  EXPECT_EQ(installed_.count("/p/a"), 1u);
  EXPECT_EQ(installed_.count("/p/b"), 1u);
}

TEST_F(HoardDaemonTest, RespectsInterval) {
  EXPECT_TRUE(daemon_.MaybeRefill(0));
  EXPECT_FALSE(daemon_.MaybeRefill(kMicrosPerHour / 2));
  EXPECT_FALSE(daemon_.MaybeRefill(kMicrosPerHour - 1));
  EXPECT_TRUE(daemon_.MaybeRefill(kMicrosPerHour));
  EXPECT_EQ(daemon_.refill_count(), 2u);
}

TEST_F(HoardDaemonTest, ForceRefillIgnoresInterval) {
  daemon_.MaybeRefill(0);
  const auto selection = daemon_.ForceRefill(1);
  EXPECT_EQ(installs_, 2u);
  EXPECT_TRUE(selection.Contains("/p/a"));
}

TEST_F(HoardDaemonTest, PendingMissesGetPinned) {
  miss_log_.RecordManual("/elsewhere/needed", 5, MissSeverity::kTaskChange);
  daemon_.ForceRefill(10);
  EXPECT_EQ(installed_.count("/elsewhere/needed"), 1u)
      << "a missed file must be pinned into the next hoard";
  EXPECT_EQ(manager_.pinned().count(GlobalPaths().Intern("/elsewhere/needed")), 1u);
}

TEST_F(HoardDaemonTest, LastSelectionRecorded) {
  daemon_.ForceRefill(10);
  EXPECT_GT(daemon_.last_selection().files.size(), 0u);
  EXPECT_EQ(daemon_.last_fill_time(), 10);
}

TEST(HoardDaemonInvestigators, RunsInvestigatorsWhenConfigured) {
  SimFilesystem fs;
  fs.MkdirAll("/p");
  fs.CreateFile("/p/m.c", 0);
  fs.CreateFile("/p/h.h", 100);
  fs.WriteContent("/p/m.c", "#include \"h.h\"\n");

  Correlator correlator;
  correlator.AddInvestigator(std::make_unique<IncludeScanner>(20.0));
  // The two files were referenced by different processes: no semantic
  // distance exists, so only the investigator can bind them.
  FileReference a;
  a.pid = 1;
  a.kind = RefKind::kPoint;
  a.path = GlobalPaths().Intern("/p/m.c");
  a.time = 1;
  correlator.OnReference(a);
  FileReference b = a;
  b.pid = 2;
  b.path = GlobalPaths().Intern("/p/h.h");
  b.time = 2;
  correlator.OnReference(b);

  Observer observer(ObserverConfig{}, &fs);
  HoardManager manager(1'000'000);
  MissLog miss_log;
  std::set<std::string> installed;
  HoardDaemon::Config config;
  config.investigate_fs = &fs;
  HoardDaemon daemon(
      &correlator, &observer, &manager, &miss_log,
      [&installed](const std::vector<std::string>& target) {
        installed = std::set<std::string>(target.begin(), target.end());
      },
      [](PathId) -> uint64_t { return 10; }, config);

  const HoardSelection sel = daemon.ForceRefill(1);
  EXPECT_TRUE(sel.Contains("/p/m.c"));
  EXPECT_TRUE(sel.Contains("/p/h.h"));
  // And the investigator actually bound them into one project.
  const ClusterSet clusters = correlator.BuildClusters();
  const FileId m = correlator.files().FindPath("/p/m.c");
  const FileId h = correlator.files().FindPath("/p/h.h");
  bool together = false;
  for (const uint32_t c : clusters.ClustersOf(m)) {
    const auto& members = clusters.clusters[c].members;
    together |= std::find(members.begin(), members.end(), h) != members.end();
  }
  EXPECT_TRUE(together);
}

TEST(HoardDaemonCheckpoint, RefillsAndFatWalsTriggerCheckpoints) {
  RealFs fs;
  const std::string dir = ::testing::TempDir() + "seer_daemon_ckpt";
  std::filesystem::remove_all(dir);
  auto opened = DurableCorrelator::Open(&fs, dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  DurableCorrelator& durable = **opened;
  for (int i = 0; i < 4; ++i) {
    durable.OnReference(Ref(1, RefKind::kPoint, "/p/f" + std::to_string(i), i + 1));
  }

  Observer observer(ObserverConfig{}, nullptr);
  HoardManager manager(1'000'000);
  MissLog miss_log;
  HoardDaemon::Config config;
  config.interval = kMicrosPerHour;
  config.durable = &durable;
  config.wal_checkpoint_bytes = 64;  // tiny threshold: a few records trip it
  HoardDaemon daemon(
      &durable.correlator(), &observer, &manager, &miss_log,
      [](const std::vector<std::string>&) {}, [](PathId) -> uint64_t { return 10; },
      config);

  // Every refill checkpoints, regardless of WAL size.
  const uint64_t before = durable.generation();
  daemon.ForceRefill(1);
  EXPECT_EQ(daemon.checkpoint_count(), 1u);
  EXPECT_TRUE(daemon.last_checkpoint_status().ok());
  EXPECT_GT(durable.generation(), before);
  EXPECT_EQ(durable.wal_bytes(), 16u) << "fresh WAL: header only";

  // Between refills, only a WAL past the size threshold compacts.
  ASSERT_FALSE(daemon.MaybeRefill(2));
  EXPECT_EQ(daemon.checkpoint_count(), 1u) << "small WAL, no checkpoint";
  for (int i = 0; i < 40; ++i) {
    durable.OnReference(Ref(1, RefKind::kPoint, "/w/f" + std::to_string(i), 100 + i));
  }
  ASSERT_GT(durable.wal_bytes(), config.wal_checkpoint_bytes);
  const uint64_t grown = durable.generation();
  ASSERT_FALSE(daemon.MaybeRefill(3)) << "interval not elapsed";
  EXPECT_EQ(daemon.checkpoint_count(), 2u) << "fat WAL forces compaction";
  EXPECT_GT(durable.generation(), grown);
  // Settle the in-flight encode/write before inspecting the store: Verify
  // scanning the directory must not race the background rename/prune.
  ASSERT_TRUE(durable.FinishCheckpoint().ok());
  EXPECT_EQ(durable.last_checkpoint_stats().generation, durable.generation());
  EXPECT_GT(durable.last_checkpoint_stats().bytes, 0u);
  EXPECT_TRUE(durable.store().Verify().ok());
}

TEST(HoardDaemonCheckpoint, DaemonHarvestsCheckpointStats) {
  RealFs fs;
  const std::string dir = ::testing::TempDir() + "seer_daemon_ckpt_stats";
  std::filesystem::remove_all(dir);
  auto opened = DurableCorrelator::Open(&fs, dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  DurableCorrelator& durable = **opened;

  Observer observer(ObserverConfig{}, nullptr);
  HoardManager manager(1'000'000);
  MissLog miss_log;
  HoardDaemon::Config config;
  config.interval = kMicrosPerHour;
  config.durable = &durable;
  HoardDaemon daemon(
      &durable.correlator(), &observer, &manager, &miss_log,
      [](const std::vector<std::string>&) {}, [](PathId) -> uint64_t { return 10; },
      config);

  durable.OnReference(Ref(1, RefKind::kPoint, "/p/a", 1));
  daemon.ForceRefill(1);
  const uint64_t first = durable.generation();
  // The next refill settles the first checkpoint inside BeginCheckpoint;
  // the daemon's snapshot of the stats then names that generation.
  durable.OnReference(Ref(1, RefKind::kPoint, "/p/b", 2));
  daemon.ForceRefill(kMicrosPerHour + 1);
  EXPECT_EQ(daemon.last_checkpoint_stats().generation, first);
  EXPECT_GT(daemon.last_checkpoint_stats().bytes, 0u);
  EXPECT_TRUE(daemon.last_checkpoint_status().ok());
  ASSERT_TRUE(durable.FinishCheckpoint().ok());
  EXPECT_TRUE(durable.store().Verify().ok());
}

// A refill chooses from everything already delivered to the durable sink:
// the sink applies each event before it returns, so no event can still be
// waiting when the daemon reads the correlator.
TEST(HoardDaemonCheckpoint, RefillSeesEveryDeliveredEvent) {
  RealFs fs;
  const std::string dir = ::testing::TempDir() + "seer_daemon_refill_sees";
  std::filesystem::remove_all(dir);
  auto opened = DurableCorrelator::Open(&fs, dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  DurableCorrelator& durable = **opened;

  Observer observer(ObserverConfig{}, nullptr);
  HoardManager manager(1'000'000);
  MissLog miss_log;
  HoardDaemon::Config config;
  config.interval = kMicrosPerHour;
  config.durable = &durable;
  HoardDaemon daemon(
      &durable.correlator(), &observer, &manager, &miss_log,
      [](const std::vector<std::string>&) {}, [](PathId) -> uint64_t { return 10; },
      config);

  durable.OnReference(Ref(1, RefKind::kPoint, "/seen/a", 1));
  durable.OnReference(Ref(1, RefKind::kPoint, "/seen/b", 2));
  const HoardSelection selection = daemon.ForceRefill(3);
  EXPECT_EQ(selection.files.size(), 2u);
  EXPECT_TRUE(selection.Contains("/seen/a"));
  EXPECT_TRUE(selection.Contains("/seen/b"));
  ASSERT_TRUE(durable.FinishCheckpoint().ok());
}

}  // namespace
}  // namespace seer
