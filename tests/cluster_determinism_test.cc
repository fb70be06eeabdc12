// Determinism guarantees of the clustering engine: the kn/kf
// two-threshold semantics (combine vs overlap) survive the flat-structure
// engine when driven through real relation-table rows rather than the
// investigated-pair side channel.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/clustering.h"

namespace seer {
namespace {

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
