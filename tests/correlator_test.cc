// Tests for the correlator: reference processing, deletion delay, rename
// identity transfer, exclusion, investigators, and end-to-end clustering of
// a compile-like reference pattern.
#include "src/core/correlator.h"

#include <gtest/gtest.h>

namespace seer {
namespace {

PathId P(std::string_view path) { return GlobalPaths().Intern(path); }

FileReference Ref(Pid pid, RefKind kind, const std::string& path, Time time) {
  FileReference r;
  r.pid = pid;
  r.kind = kind;
  r.path = P(path);
  r.time = time;
  return r;
}

class CorrelatorTest : public ::testing::Test {
 protected:
  CorrelatorTest() : correlator_(MakeParams()) {}

  static SeerParams MakeParams() {
    SeerParams p;
    p.cluster_near = 4;
    p.cluster_far = 2;
    p.dir_distance_weight = 0.0;
    p.delete_delay = 3;
    return p;
  }

  // Simulates one compilation: source held open while headers cycle.
  void Compile(Pid pid, const std::string& source, const std::vector<std::string>& headers) {
    correlator_.OnReference(Ref(pid, RefKind::kBegin, source, Now()));
    for (const auto& h : headers) {
      correlator_.OnReference(Ref(pid, RefKind::kBegin, h, Now()));
      correlator_.OnReference(Ref(pid, RefKind::kEnd, h, Now()));
    }
    correlator_.OnReference(Ref(pid, RefKind::kEnd, source, Now()));
  }

  Time Now() { return time_ += kMicrosPerSecond; }

  Correlator correlator_;
  Time time_ = 0;
};

TEST_F(CorrelatorTest, CompilePatternProducesCloseDistances) {
  for (int i = 0; i < 3; ++i) {
    Compile(1, "/p/main.c", {"/p/a.h", "/p/b.h"});
  }
  const double d = correlator_.Distance("/p/main.c", "/p/a.h");
  ASSERT_GE(d, 0.0);
  EXPECT_LT(d, 1.0);  // held-open source: distance ~0 to its headers
}

TEST_F(CorrelatorTest, CompilePatternClustersProject) {
  // Two separate projects compiled repeatedly in different processes.
  for (int i = 0; i < 6; ++i) {
    Compile(1, "/p1/main.c", {"/p1/a.h", "/p1/b.h", "/p1/c.h"});
    Compile(2, "/p2/main.c", {"/p2/x.h", "/p2/y.h", "/p2/z.h"});
  }
  const ClusterSet clusters = correlator_.BuildClusters();

  const FileId p1_main = correlator_.files().FindPath("/p1/main.c");
  const FileId p1_a = correlator_.files().FindPath("/p1/a.h");
  const FileId p2_main = correlator_.files().FindPath("/p2/main.c");

  // p1 files cluster together...
  bool together = false;
  for (const uint32_t c : clusters.ClustersOf(p1_main)) {
    const auto& members = clusters.clusters[c].members;
    if (std::find(members.begin(), members.end(), p1_a) != members.end()) {
      together = true;
    }
    // ...and never with p2.
    EXPECT_TRUE(std::find(members.begin(), members.end(), p2_main) == members.end());
  }
  EXPECT_TRUE(together);
}

TEST_F(CorrelatorTest, DeletionDelayedThenPurged) {
  for (int i = 0; i < 3; ++i) {
    Compile(1, "/p/main.c", {"/p/a.h"});
  }
  ASSERT_GE(correlator_.Distance("/p/main.c", "/p/a.h"), 0.0);

  // Deletion marks but does not purge (delay = 3 deletions).
  correlator_.OnFileDeleted(P("/p/a.h"), Now());
  const FileId id = correlator_.files().FindPath("/p/a.h");
  EXPECT_TRUE(correlator_.files().Get(id).deleted);

  // Three more deletions elsewhere expire the grace period. (Deletions of
  // never-referenced files are invisible to the correlator, so reference
  // the victims first.)
  for (const char* junk : {"/p/junk1", "/p/junk2", "/p/junk3"}) {
    correlator_.OnReference(Ref(1, RefKind::kPoint, junk, Now()));
    correlator_.OnFileDeleted(P(junk), Now());
  }
  EXPECT_LT(correlator_.Distance("/p/main.c", "/p/a.h"), 0.0) << "relations purged";
}

TEST_F(CorrelatorTest, ImmediateRecreationKeepsRelations) {
  for (int i = 0; i < 3; ++i) {
    Compile(1, "/p/main.c", {"/p/a.h"});
  }
  correlator_.OnFileDeleted(P("/p/a.h"), Now());
  // The name is reused right away (delete + recreate, Section 4.8).
  correlator_.OnReference(Ref(1, RefKind::kPoint, "/p/a.h", Now()));
  const FileId id = correlator_.files().FindPath("/p/a.h");
  EXPECT_FALSE(correlator_.files().Get(id).deleted);
  EXPECT_GE(correlator_.Distance("/p/main.c", "/p/a.h"), 0.0);
}

TEST_F(CorrelatorTest, RenameTransfersIdentity) {
  for (int i = 0; i < 3; ++i) {
    Compile(1, "/p/main.c", {"/p/old.h"});
  }
  correlator_.OnFileRenamed(P("/p/old.h"), P("/p/new.h"), Now());
  EXPECT_EQ(correlator_.files().FindPath("/p/old.h"), kInvalidFileId);
  EXPECT_GE(correlator_.Distance("/p/main.c", "/p/new.h"), 0.0)
      << "relationship data survives the rename";
}

TEST_F(CorrelatorTest, RenameOfUnknownFileJustInterns) {
  correlator_.OnFileRenamed(P("/p/ghost"), P("/p/solid"), Now());
  EXPECT_NE(correlator_.files().FindPath("/p/solid"), kInvalidFileId);
}

TEST_F(CorrelatorTest, ExclusionPurgesAndStops) {
  for (int i = 0; i < 3; ++i) {
    Compile(1, "/p/main.c", {"/p/lib.so"});
  }
  correlator_.OnFileExcluded(P("/p/lib.so"));
  EXPECT_LT(correlator_.Distance("/p/main.c", "/p/lib.so"), 0.0);

  // Further references to the excluded file must not recreate relations.
  Compile(1, "/p/main.c", {"/p/lib.so"});
  const FileId id = correlator_.files().FindPath("/p/lib.so");
  EXPECT_TRUE(correlator_.files().Get(id).excluded);
  EXPECT_TRUE(correlator_.relations().LiveNeighborIds(id).empty());
}

TEST_F(CorrelatorTest, InvestigatedRelationFeedsClustering) {
  correlator_.OnReference(Ref(1, RefKind::kPoint, "/p/a", Now()));
  correlator_.OnReference(Ref(2, RefKind::kPoint, "/p/b", Now()));  // different pid: no distance
  InvestigatedRelation rel;
  rel.files = {"/p/a", "/p/b"};
  rel.strength = 10.0;
  correlator_.AddInvestigatedRelation(rel);

  const ClusterSet clusters = correlator_.BuildClusters();
  const FileId a = correlator_.files().FindPath("/p/a");
  const FileId b = correlator_.files().FindPath("/p/b");
  bool together = false;
  for (const uint32_t c : clusters.ClustersOf(a)) {
    const auto& m = clusters.clusters[c].members;
    together |= std::find(m.begin(), m.end(), b) != m.end();
  }
  EXPECT_TRUE(together);
}

TEST_F(CorrelatorTest, RunInvestigatorsAgainstFilesystem) {
  SimFilesystem fs;
  fs.MkdirAll("/p");
  fs.CreateFile("/p/m.c", 0);
  fs.CreateFile("/p/h.h", 0);
  fs.WriteContent("/p/m.c", "#include \"h.h\"\n");

  correlator_.OnReference(Ref(1, RefKind::kPoint, "/p/m.c", Now()));
  correlator_.OnReference(Ref(2, RefKind::kPoint, "/p/h.h", Now()));
  correlator_.AddInvestigator(std::make_unique<IncludeScanner>(10.0));
  correlator_.RunInvestigators(fs);

  const ClusterSet clusters = correlator_.BuildClusters();
  const FileId m = correlator_.files().FindPath("/p/m.c");
  const FileId h = correlator_.files().FindPath("/p/h.h");
  bool together = false;
  for (const uint32_t c : clusters.ClustersOf(m)) {
    const auto& members = clusters.clusters[c].members;
    together |= std::find(members.begin(), members.end(), h) != members.end();
  }
  EXPECT_TRUE(together);
}

// One RunInvestigators call also investigates the files its own relations
// intern. Here a.c includes b.h and b.h includes c.h, but only a.c was ever
// referenced: b.h is first interned by a.c's relation. If only the next
// call investigated it, two refills with no event between them would
// cluster differently.
TEST_F(CorrelatorTest, RunInvestigatorsReachesAFixpointInOneCall) {
  SimFilesystem fs;
  fs.MkdirAll("/chain");
  fs.CreateFile("/chain/a.c", 0);
  fs.CreateFile("/chain/b.h", 0);
  fs.CreateFile("/chain/c.h", 0);
  fs.WriteContent("/chain/a.c", "#include \"b.h\"\n");
  fs.WriteContent("/chain/b.h", "#include \"c.h\"\n");

  correlator_.OnReference(Ref(1, RefKind::kPoint, "/chain/a.c", Now()));
  correlator_.AddInvestigator(std::make_unique<IncludeScanner>(10.0));
  correlator_.RunInvestigators(fs);
  const ClusterSet first = correlator_.BuildClusters();
  correlator_.RunInvestigators(fs);
  const ClusterSet second = correlator_.BuildClusters();

  ASSERT_EQ(first.clusters.size(), second.clusters.size());
  for (size_t i = 0; i < first.clusters.size(); ++i) {
    EXPECT_EQ(first.clusters[i].members, second.clusters[i].members) << "cluster " << i;
  }
  EXPECT_EQ(first.membership_offset, second.membership_offset);
  EXPECT_EQ(first.membership_ids, second.membership_ids);

  // The first call already related b.h to c.h.
  const FileId b = correlator_.files().FindPath("/chain/b.h");
  const FileId c = correlator_.files().FindPath("/chain/c.h");
  ASSERT_NE(kInvalidFileId, c);
  bool together = false;
  for (const uint32_t ci : first.ClustersOf(b)) {
    const auto& members = first.clusters[ci].members;
    together |= std::find(members.begin(), members.end(), c) != members.end();
  }
  EXPECT_TRUE(together);
}

TEST_F(CorrelatorTest, MemoryBytesGrowsWithFiles) {
  const size_t before = correlator_.MemoryBytes();
  for (int i = 0; i < 100; ++i) {
    correlator_.OnReference(Ref(1, RefKind::kPoint, "/p/f" + std::to_string(i), Now()));
  }
  EXPECT_GT(correlator_.MemoryBytes(), before);
}

TEST_F(CorrelatorTest, NeighborPathsDiagnostic) {
  for (int i = 0; i < 3; ++i) {
    Compile(1, "/p/main.c", {"/p/a.h"});
  }
  const auto neighbors = correlator_.NeighborPaths("/p/main.c");
  EXPECT_TRUE(std::find(neighbors.begin(), neighbors.end(), "/p/a.h") != neighbors.end());
  EXPECT_TRUE(correlator_.NeighborPaths("/unknown").empty());
}

}  // namespace
}  // namespace seer
