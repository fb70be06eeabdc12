// Tests for the n-nearest-neighbor relation table (Section 3.1.3): the
// geometric-mean reduction and the three-level replacement priority.
#include "src/core/relation_table.h"

#include <cmath>

#include <gtest/gtest.h>

namespace seer {
namespace {

class RelationHarness {
 public:
  explicit RelationHarness(SeerParams params = MakeParams())
      : params_(params), table_(params_, &files_) {}

  static SeerParams MakeParams() {
    SeerParams p;
    p.max_neighbors = 3;  // small list to exercise replacement
    return p;
  }

  FileId Id(const std::string& name) { return files_.Intern(GlobalPaths().Intern("/r/" + name)); }

  FileTable& files() { return files_; }
  RelationTable& table() { return table_; }
  const SeerParams& params() const { return params_; }

 private:
  SeerParams params_;
  FileTable files_;
  RelationTable table_;
};

TEST(RelationTable, GeometricMeanAccumulation) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const FileId b = h.Id("b");
  h.table().Observe(a, b, 2.0);
  h.table().Observe(a, b, 8.0);
  EXPECT_NEAR(h.table().DistanceOrNegative(a, b), 4.0, 1e-9);  // sqrt(2*8)
}

// Section 3.1.2's motivating example: distances {1, 1, 1498} should read as
// much closer than {500, 500, 500} — the geometric mean gives small values
// more importance, unlike the arithmetic mean (both have mean 500).
TEST(RelationTable, GeometricMeanFavorsSmallDistances) {
  RelationHarness close_pair;
  const FileId a1 = close_pair.Id("a");
  const FileId b1 = close_pair.Id("b");
  close_pair.table().Observe(a1, b1, 1.0);
  close_pair.table().Observe(a1, b1, 1.0);
  close_pair.table().Observe(a1, b1, 1498.0);

  RelationHarness far_pair;
  const FileId a2 = far_pair.Id("a");
  const FileId b2 = far_pair.Id("b");
  far_pair.table().Observe(a2, b2, 500.0);
  far_pair.table().Observe(a2, b2, 500.0);
  far_pair.table().Observe(a2, b2, 500.0);

  EXPECT_LT(close_pair.table().DistanceOrNegative(a1, b1),
            far_pair.table().DistanceOrNegative(a2, b2) / 10.0);
}

TEST(RelationTable, ArithmeticMeanForAblation) {
  SeerParams p = RelationHarness::MakeParams();
  p.mean_kind = MeanKind::kArithmetic;
  RelationHarness h(p);
  const FileId a = h.Id("a");
  const FileId b = h.Id("b");
  h.table().Observe(a, b, 1.0);
  h.table().Observe(a, b, 1.0);
  h.table().Observe(a, b, 1498.0);
  EXPECT_NEAR(h.table().DistanceOrNegative(a, b), 500.0, 1e-9);
}

TEST(RelationTable, ZeroDistanceUsesFloor) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const FileId b = h.Id("b");
  h.table().Observe(a, b, 0.0);
  const double d = h.table().DistanceOrNegative(a, b);
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 1.0);  // a run of zeros stays below every nonzero distance
}

TEST(RelationTable, ListCappedAtN) {
  RelationHarness h;
  const FileId a = h.Id("a");
  for (int i = 0; i < 10; ++i) {
    h.table().Observe(a, h.Id("n" + std::to_string(i)), 5.0);
  }
  EXPECT_EQ(h.table().NeighborsOf(a).size(), 3u);
}

// Replacement priority 2: the farthest entry yields to a closer candidate.
TEST(RelationTable, FarthestEntryReplacedByCloserCandidate) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const FileId far = h.Id("far");
  h.table().Observe(a, h.Id("n1"), 5.0);
  h.table().Observe(a, h.Id("n2"), 5.0);
  h.table().Observe(a, far, 90.0);

  const FileId close = h.Id("close");
  h.table().Observe(a, close, 2.0);
  EXPECT_LT(h.table().DistanceOrNegative(a, far), 0.0) << "far entry should be gone";
  EXPECT_GT(h.table().DistanceOrNegative(a, close), 0.0);
}

// ...but a candidate farther than everything present is NOT admitted.
TEST(RelationTable, FartherCandidateRejected) {
  RelationHarness h;
  const FileId a = h.Id("a");
  h.table().Observe(a, h.Id("n1"), 5.0);
  h.table().Observe(a, h.Id("n2"), 5.0);
  h.table().Observe(a, h.Id("n3"), 5.0);

  const FileId worse = h.Id("worse");
  h.table().Observe(a, worse, 50.0);
  EXPECT_LT(h.table().DistanceOrNegative(a, worse), 0.0);
  EXPECT_EQ(h.table().NeighborsOf(a).size(), 3u);
}

// Replacement priority 1: a deletion-marked neighbor goes first, even when
// it is not the farthest.
TEST(RelationTable, DeletionMarkedEntryReplacedFirst) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const FileId doomed = h.Id("doomed");
  h.table().Observe(a, doomed, 1.0);  // closest of the three
  h.table().Observe(a, h.Id("n1"), 5.0);
  h.table().Observe(a, h.Id("n2"), 9.0);

  h.files().MarkDeleted(doomed, /*delete_delay=*/1000);
  const FileId fresh = h.Id("fresh");
  h.table().Observe(a, fresh, 8.0);

  EXPECT_LT(h.table().DistanceOrNegative(a, doomed), 0.0);
  EXPECT_GT(h.table().DistanceOrNegative(a, fresh), 0.0);
  EXPECT_GT(h.table().DistanceOrNegative(a, h.Id("n2")), 0.0) << "farthest entry kept";
}

// Replacement priority 3: an aged entry yields even to a farther candidate.
TEST(RelationTable, AgingAllowsReplacement) {
  SeerParams p = RelationHarness::MakeParams();
  p.aging_updates = 10;
  RelationHarness h(p);
  const FileId a = h.Id("a");
  const FileId old_nb = h.Id("old");
  h.table().Observe(a, old_nb, 1.0);
  h.table().Observe(a, h.Id("n1"), 1.0);
  h.table().Observe(a, h.Id("n2"), 1.0);

  // Generate many updates elsewhere to age the entries.
  const FileId busy = h.Id("busy");
  for (int i = 0; i < 20; ++i) {
    h.table().Observe(busy, h.Id("t" + std::to_string(i % 2)), 1.0);
  }
  // Keep n1 and n2 fresh; old_nb stays stale.
  h.table().Observe(a, h.Id("n1"), 1.0);
  h.table().Observe(a, h.Id("n2"), 1.0);

  const FileId newer = h.Id("newer");
  h.table().Observe(a, newer, 30.0);  // farther than everything, but old_nb aged out
  EXPECT_GT(h.table().DistanceOrNegative(a, newer), 0.0);
  EXPECT_LT(h.table().DistanceOrNegative(a, old_nb), 0.0);
}

TEST(RelationTable, PurgeRemovesFromAllLists) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const FileId b = h.Id("b");
  const FileId c = h.Id("c");
  h.table().Observe(a, b, 1.0);
  h.table().Observe(c, b, 1.0);
  h.table().Observe(b, a, 1.0);

  h.table().Purge(b);
  EXPECT_LT(h.table().DistanceOrNegative(a, b), 0.0);
  EXPECT_LT(h.table().DistanceOrNegative(c, b), 0.0);
  EXPECT_TRUE(h.table().NeighborsOf(b).empty());
}

TEST(RelationTable, SelfObservationIgnored) {
  RelationHarness h;
  const FileId a = h.Id("a");
  h.table().Observe(a, a, 1.0);
  EXPECT_TRUE(h.table().NeighborsOf(a).empty());
}

TEST(RelationTable, LiveNeighborIdsSkipDeletedAndExcluded) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const FileId dead = h.Id("dead");
  const FileId excl = h.Id("excl");
  const FileId ok = h.Id("ok");
  h.table().Observe(a, dead, 1.0);
  h.table().Observe(a, excl, 1.0);
  h.table().Observe(a, ok, 1.0);
  h.files().MarkDeleted(dead, /*delete_delay=*/1000);
  h.files().MarkExcluded(excl);

  const auto live = h.table().LiveNeighborIds(a);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0], ok);
}

TEST(RelationTable, LiveNeighborIdsAppendOverloadDoesNotClear) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const FileId b = h.Id("b");
  h.table().Observe(a, b, 1.0);

  std::vector<FileId> out = {kInvalidFileId};  // pre-existing scratch content
  h.table().LiveNeighborIds(a, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], kInvalidFileId) << "append overload must not clear";
  EXPECT_EQ(out[1], b);
}

TEST(RelationTable, FindSlotAndHintedObserve) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const FileId b = h.Id("b");
  const FileId c = h.Id("c");
  h.table().Observe(a, b, 2.0);
  h.table().Observe(a, c, 3.0);

  EXPECT_EQ(h.table().FindSlot(a, b), 0);
  EXPECT_EQ(h.table().FindSlot(a, c), 1);
  EXPECT_EQ(h.table().FindSlot(a, h.Id("unknown")), -1);
  EXPECT_EQ(h.table().FindSlot(h.Id("nolist"), b), -1);

  // Each fold lands in the entry FindSlot names, whichever slot that is;
  // a brand-new pair is appended.
  h.table().Observe(a, b, 8.0);
  EXPECT_NEAR(h.table().DistanceOrNegative(a, b), 4.0, 1e-9);  // sqrt(2*8)
  h.table().Observe(a, c, 12.0);
  EXPECT_NEAR(h.table().DistanceOrNegative(a, c), 6.0, 1e-9);  // sqrt(3*12)
  h.table().Observe(a, b, 32.0);
  EXPECT_NEAR(h.table().DistanceOrNegative(a, b), 8.0, 1e-9);  // cbrt(2*8*32)
  h.table().Observe(a, h.Id("d"), 1.0);
  EXPECT_GT(h.table().DistanceOrNegative(a, h.Id("d")), 0.0);
  EXPECT_EQ(h.table().FindSlot(a, h.Id("d")), 2);
}

// The lazy mean cache must be invalidated when an entry's accumulators
// change: a priority-2 scan after a fold has to see the new mean, or a
// replacement decision could go the wrong way.
TEST(RelationTable, MeanCacheInvalidatedOnFold) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const FileId x = h.Id("x");
  h.table().Observe(a, x, 80.0);
  h.table().Observe(a, h.Id("n1"), 4.0);
  h.table().Observe(a, h.Id("n2"), 4.0);

  // Full-list miss primes the cache (candidate farther than worst=80 is
  // rejected).
  h.table().Observe(a, h.Id("reject"), 100.0);
  EXPECT_LT(h.table().DistanceOrNegative(a, h.Id("reject")), 0.0);

  // Fold x down: its geometric mean drops from 80 to sqrt(80) ≈ 8.94.
  h.table().Observe(a, x, 1.0);

  // Candidate at 20: with a stale cache the scan would still see x at 80
  // and replace it; with correct invalidation the worst mean is ~8.94 and
  // the candidate is rejected.
  h.table().Observe(a, h.Id("mid"), 20.0);
  EXPECT_GT(h.table().DistanceOrNegative(a, x), 0.0) << "x must survive";
  EXPECT_LT(h.table().DistanceOrNegative(a, h.Id("mid")), 0.0);
}

}  // namespace
}  // namespace seer
