// Determinism guarantees of the parallel clustering engine:
//
//   * the ClusterSet is bit-identical at any thread count (scoring is
//     parallel but pure per-edge; the union/emit order is fixed);
//   * the kn/kf two-threshold semantics (combine vs overlap) survive the
//     flat-structure engine when driven through real relation-table rows
//     rather than the investigated-pair side channel.
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/clustering.h"
#include "src/core/correlator.h"

namespace seer {
namespace {

bool SameClusterSet(const ClusterSet& a, const ClusterSet& b) {
  if (a.clusters.size() != b.clusters.size()) {
    return false;
  }
  for (size_t i = 0; i < a.clusters.size(); ++i) {
    if (a.clusters[i].members != b.clusters[i].members) {
      return false;
    }
  }
  return a.membership_offset == b.membership_offset && a.membership_ids == b.membership_ids;
}

// One recorded reference stream, replayable into any number of correlators
// so every instance sees byte-identical input.
void Apply(Correlator* c, const std::vector<FileReference>& refs) {
  for (const FileReference& ref : refs) {
    c->OnReference(ref);
  }
}

PathId StreamPath(const std::string& ns, int i) {
  return GlobalPaths().Intern("/" + ns + "/p" + std::to_string(i / 12) + "/f" +
                              std::to_string(i % 12));
}

// A deterministic randomized reference round: `count` references over
// `files` paths spread across a handful of process streams.
std::vector<FileReference> RandomRefs(std::mt19937* rng, const std::string& ns, int files,
                                      int count, Time* t) {
  std::uniform_int_distribution<int> file_dist(0, files - 1);
  std::uniform_int_distribution<int> pid_dist(1, 6);
  std::vector<FileReference> refs;
  refs.reserve(count);
  for (int i = 0; i < count; ++i) {
    FileReference ref;
    ref.pid = static_cast<Pid>(pid_dist(*rng));
    ref.kind = RefKind::kPoint;
    ref.path = StreamPath(ns, file_dist(*rng));
    ref.time = (*t += 500);
    refs.push_back(ref);
  }
  return refs;
}

// Identical streams into builders pinned at 1, 2, and 8 threads must yield
// identical ClusterSets — on a first build, and again after more
// references (a second full pass over the grown tables).
TEST(ClusterDeterminism, ThreadCountInvariance) {
  std::mt19937 rng(20260806);
  Time t = 0;
  const std::vector<FileReference> cold = RandomRefs(&rng, "tc", 96, 700, &t);
  const std::vector<FileReference> touch = RandomRefs(&rng, "tc", 96, 30, &t);

  Correlator serial;
  Correlator two;
  Correlator eight;
  serial.SetClusterThreads(1);
  two.SetClusterThreads(2);
  eight.SetClusterThreads(8);

  for (Correlator* c : {&serial, &two, &eight}) {
    Apply(c, cold);
  }
  const ClusterSet cold1 = serial.BuildClusters();
  const ClusterSet cold2 = two.BuildClusters();
  const ClusterSet cold8 = eight.BuildClusters();
  ASSERT_FALSE(cold1.clusters.empty());
  EXPECT_TRUE(SameClusterSet(cold1, cold2));
  EXPECT_TRUE(SameClusterSet(cold1, cold8));

  for (Correlator* c : {&serial, &two, &eight}) {
    Apply(c, touch);
  }
  const ClusterSet warm1 = serial.BuildClusters();
  const ClusterSet warm2 = two.BuildClusters();
  const ClusterSet warm8 = eight.BuildClusters();
  EXPECT_TRUE(SameClusterSet(warm1, warm2));
  EXPECT_TRUE(SameClusterSet(warm1, warm8));
}

// kn/kf semantics through real relation rows: A and B share three live
// neighbors (>= kn: their clusters combine), C shares two with B (>= kf:
// overlap without merging). Everything flows through the flat engine —
// interned rows, packed buckets, CSR membership.
TEST(ClusterDeterminism, KfOverlapThroughRelationTable) {
  SeerParams params;
  params.cluster_near = 3;
  params.cluster_far = 2;
  params.dir_distance_weight = 0.0;
  FileTable files;
  RelationTable relations(params, &files);
  ClusterBuilder builder(params, &files, &relations);

  auto id = [&](const std::string& name) {
    return files.Intern(GlobalPaths().Intern("/kf/" + name));
  };
  const FileId a = id("A");
  const FileId b = id("B");
  const FileId c = id("C");
  const FileId n1 = id("N1");
  const FileId n2 = id("N2");
  const FileId n3 = id("N3");

  // row(A) = {B, N1, N2, N3}; row(B) = {A, N1, N2, N3}: 3 shared -> near.
  relations.Observe(a, b, 0.5);
  relations.Observe(b, a, 0.5);
  for (const FileId n : {n1, n2, n3}) {
    relations.Observe(a, n, 0.5);
    relations.Observe(b, n, 0.5);
  }
  // row(C) = {B, N2, N3}: shares {N2, N3} with row(B) -> far.
  relations.Observe(c, b, 0.5);
  relations.Observe(c, n2, 0.5);
  relations.Observe(c, n3, 0.5);

  const ClusterSet set = builder.Build(files.LiveIds());
  EXPECT_EQ(set.ClustersOf(a).size(), 1u);
  EXPECT_EQ(set.ClustersOf(b).size(), 2u);  // its own cluster + C's
  EXPECT_EQ(set.ClustersOf(c).size(), 2u);  // its own cluster + {A,B}'s

  // The combined cluster holds A, B, and (by far-overlap) C.
  bool found_abc = false;
  for (const uint32_t ci : set.ClustersOf(a)) {
    const std::vector<FileId>& m = set.clusters[ci].members;
    found_abc = found_abc || (m.size() == 3 && m[0] == a && m[1] == b && m[2] == c);
  }
  EXPECT_TRUE(found_abc);
}

}  // namespace
}  // namespace seer
