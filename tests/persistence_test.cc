// Tests for the correlator database format: the sectioned snapshot
// (EncodeSnapshot/DecodeSnapshot) carries the learned state exactly, and
// every malformed input decodes to kDataLoss.
#include <bit>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/core/correlator.h"
#include "src/core/params_io.h"
#include "tests/snapshot_reframe.h"

namespace seer {
namespace {

using snapshot_internal::kTagFiles;
using snapshot_internal::kTagParams;
using snapshot_internal::kTagPaths;
using snapshot_internal::kTagStreams;
using snapshot_internal::kTagStripe;

PathId P(std::string_view path) { return GlobalPaths().Intern(path); }

FileReference Ref(Pid pid, RefKind kind, const std::string& path, Time time) {
  FileReference r;
  r.pid = pid;
  r.kind = kind;
  r.path = P(path);
  r.time = time;
  return r;
}

// Loads the correlator with a couple of projects' worth of relations.
void Populate(Correlator* correlator) {
  Time t = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (int proj = 0; proj < 2; ++proj) {
      for (int f = 0; f < 6; ++f) {
        correlator->OnReference(Ref(proj + 1, RefKind::kPoint,
                                    "/p" + std::to_string(proj) + "/f" + std::to_string(f),
                                    t += kMicrosPerSecond));
      }
    }
  }
  correlator->OnFileDeleted(P("/p0/f5"), t);
}

std::unique_ptr<Correlator> RoundTrip(const Correlator& original) {
  auto decoded = Correlator::DecodeSnapshot(original.EncodeSnapshot());
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  return decoded.ok() ? *std::move(decoded) : nullptr;
}

void ExpectDataLoss(std::string_view bytes, const std::string& what) {
  const auto decoded = Correlator::DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok()) << what;
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << what;
  EXPECT_FALSE(decoded.status().message().empty()) << what;
}

TEST(Persistence, SaveLoadRoundTrip) {
  SeerParams params;
  params.max_neighbors = 12;
  params.cluster_near = 7;
  params.cluster_far = 4;
  Correlator original(params);
  Populate(&original);

  const auto loaded = RoundTrip(original);
  ASSERT_NE(loaded, nullptr);

  // Same parameters.
  EXPECT_EQ(loaded->params().max_neighbors, 12);
  EXPECT_EQ(loaded->params().cluster_near, 7);

  // Same files (including the deleted mark).
  ASSERT_EQ(loaded->files().size(), original.files().size());
  const FileId deleted = loaded->files().FindPath("/p0/f5");
  ASSERT_NE(deleted, kInvalidFileId);
  EXPECT_TRUE(loaded->files().Get(deleted).deleted);

  // Bit-identical distances for every tracked pair.
  for (int f = 1; f < 5; ++f) {
    const std::string from = "/p0/f0";
    const std::string to = "/p0/f" + std::to_string(f);
    EXPECT_EQ(loaded->Distance(from, to), original.Distance(from, to)) << to;
  }

  // Identical clustering.
  const ClusterSet a = original.BuildClusters();
  const ClusterSet b = loaded->BuildClusters();
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i].members, b.clusters[i].members) << i;
  }
}

TEST(Persistence, LoadedCorrelatorKeepsLearning) {
  Correlator original;
  Populate(&original);
  const auto loaded = RoundTrip(original);
  ASSERT_NE(loaded, nullptr);

  // New references extend the old database; the global sequence resumes
  // past the saved point so recency ordering stays monotone.
  const uint64_t before = loaded->files().Get(loaded->files().FindPath("/p0/f0")).last_ref_seq;
  loaded->OnReference(Ref(1, RefKind::kPoint, "/p0/f0", 999 * kMicrosPerSecond));
  EXPECT_GT(loaded->files().Get(loaded->files().FindPath("/p0/f0")).last_ref_seq, before);
  loaded->OnReference(Ref(1, RefKind::kPoint, "/p0/new", 1000 * kMicrosPerSecond));
  EXPECT_NE(loaded->files().FindPath("/p0/new"), kInvalidFileId);
}

TEST(Persistence, DeletionDelayResumesAfterLoad) {
  SeerParams params;
  params.delete_delay = 2;
  Correlator original(params);
  Populate(&original);  // one deletion recorded

  const auto loaded = RoundTrip(original);
  ASSERT_NE(loaded, nullptr);

  // Two more deletions expire /p0/f5's grace period in the LOADED instance.
  loaded->OnReference(Ref(1, RefKind::kPoint, "/x1", 1));
  loaded->OnFileDeleted(P("/x1"), 2);
  loaded->OnReference(Ref(1, RefKind::kPoint, "/x2", 3));
  loaded->OnFileDeleted(P("/x2"), 4);
  EXPECT_LT(loaded->Distance("/p0/f0", "/p0/f5"), 0.0)
      << "purge queue should survive the reload";
}

TEST(Persistence, PathsWithSpacesSurvive) {
  Correlator original;
  original.OnReference(Ref(1, RefKind::kPoint, "/docs/My Report.doc", 1));
  original.OnReference(Ref(1, RefKind::kPoint, "/docs/figure one.fig", 2));
  original.OnReference(Ref(1, RefKind::kPoint, "/docs/two\nlines", 3));
  const auto loaded = RoundTrip(original);
  ASSERT_NE(loaded, nullptr);
  EXPECT_NE(loaded->files().FindPath("/docs/My Report.doc"), kInvalidFileId);
  EXPECT_NE(loaded->files().FindPath("/docs/two\nlines"), kInvalidFileId);
  EXPECT_GE(loaded->Distance("/docs/My Report.doc", "/docs/figure one.fig"), 0.0);
  EXPECT_GE(loaded->Distance("/docs/figure one.fig", "/docs/two\nlines"), 0.0);
}

TEST(Persistence, RejectsGarbage) {
  {
    const auto loaded = Correlator::DecodeSnapshot("not a database\n");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
  }
  ExpectDataLoss("SEERDB 1\nparams 0\nfiles 0 0 0\nrelations 0\nend\n", "text dump");
  ExpectDataLoss("SEERSNP2", "magic only");
  ExpectDataLoss("", "empty");
}

TEST(Persistence, RejectsTruncation) {
  Correlator original;
  Populate(&original);
  const std::string full = original.EncodeSnapshot();

  // Every proper prefix must be rejected: the format ends with an explicit
  // end section and every section is length-framed.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    ExpectDataLoss(std::string_view(full).substr(0, cut), "cut at " + std::to_string(cut));
  }
}

TEST(Persistence, HexFloatExactness) {
  Correlator original;
  // Distances with awkward log values.
  for (int i = 0; i < 50; ++i) {
    original.OnReference(Ref(1, RefKind::kPoint, "/a", i * 2 + 1));
    original.OnReference(Ref(1, RefKind::kPoint, "/b", i * 2 + 2));
  }
  const auto loaded = RoundTrip(original);
  ASSERT_NE(loaded, nullptr);
  // Doubles travel as raw IEEE-754 bits: no rounding anywhere.
  EXPECT_EQ(loaded->Distance("/a", "/b"), original.Distance("/a", "/b"));
  const FileId a = original.files().FindPath("/a");
  ASSERT_EQ(loaded->relations().NeighborsOf(a).size(), 1u);
  const Neighbor want = original.relations().NeighborsOf(a)[0];
  const Neighbor got = loaded->relations().NeighborsOf(a)[0];
  EXPECT_EQ(std::bit_cast<uint64_t>(got.log_sum), std::bit_cast<uint64_t>(want.log_sum));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.linear_sum), std::bit_cast<uint64_t>(want.linear_sum));
}

TEST(Persistence, RejectsNonFiniteDistances) {
  // A NaN or infinite accumulator would poison every mean distance computed
  // from the record, so a stripe carrying one is corrupt even when its CRC
  // is valid. Stripe payload: u32 index | u32 lists | u32 from | u32 count
  // | u32 id | f64 log-sum (offset 20) | f64 linear-sum (offset 28) | ...
  Correlator original;
  original.OnReference(Ref(1, RefKind::kPoint, "/a", 1));
  original.OnReference(Ref(1, RefKind::kPoint, "/b", 2));
  const std::string valid = original.EncodeSnapshot();
  ASSERT_TRUE(Correlator::DecodeSnapshot(valid).ok());

  const double kInf = std::numeric_limits<double>::infinity();
  for (const size_t offset : {20u, 28u}) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
      bool poked = false;
      const std::string crafted =
          ReframeSnapshot(valid, [&](size_t, uint32_t tag, std::string* payload) {
            if (tag == kTagStripe && !poked) {
              ASSERT_GE(payload->size(), offset + 8);
              PokeLE(payload, offset, std::bit_cast<uint64_t>(bad), 8);
              poked = true;
            }
          });
      ASSERT_TRUE(poked);
      ExpectDataLoss(crafted, "offset " + std::to_string(offset) + " value " +
                                  std::to_string(bad));
    }
  }
}

// A CRC-valid section whose counts claim more records than its bytes could
// hold must come back as kDataLoss, sized by the bytes actually present —
// never a multi-gigabyte reserve() that aborts the process (one bad tenant
// file must not take down a server restoring every tenant).
TEST(Persistence, ImplausibleCountsAreDataLoss) {
  Correlator original;
  original.OnReference(Ref(1, RefKind::kPoint, "/one", 1));  // one file, one stream
  const std::string valid = original.EncodeSnapshot();
  ASSERT_TRUE(Correlator::DecodeSnapshot(valid).ok());

  // (section, payload offset, width) of each count. STRM: u32 removed |
  // u32 streams | i32 pid | i32 parent | u64 open | u64 ref | u32 files.
  // FILE: 4 x u64 header | 37-byte record | u32 purge count.
  struct Count {
    uint32_t tag;
    size_t offset;
    const char* name;
  };
  const Count counts[] = {
      {kTagStreams, 32, "stream file states"},
      {kTagPaths, 0, "path table"},
      {kTagStreams, 0, "removed pids"},
      {kTagStreams, 4, "streams"},
      {kTagFiles, 32 + 37, "purge queue"},
  };
  for (const Count& c : counts) {
    const std::string crafted =
        ReframeSnapshot(valid, [&](size_t, uint32_t tag, std::string* payload) {
          if (tag == c.tag) {
            ASSERT_GE(payload->size(), c.offset + 4) << c.name;
            PokeLE(payload, c.offset, 0xffffffffu, 4);
          }
        });
    ExpectDataLoss(crafted, c.name);
  }
}

// A CRC-valid PRMS section whose n would size the relation slab at
// files x 2e9 slots must be rejected by the params parser, before the
// decoder builds a correlator from it: a tenant restoring such a store
// would otherwise abort the whole server with std::bad_alloc.
TEST(Persistence, HugeNeighborCountIsDataLoss) {
  Correlator original;
  original.OnReference(Ref(1, RefKind::kPoint, "/one", 1));
  original.OnReference(Ref(1, RefKind::kPoint, "/two", 2));
  const std::string valid = original.EncodeSnapshot();
  ASSERT_TRUE(Correlator::DecodeSnapshot(valid).ok());

  SeerParams huge = original.params();
  huge.max_neighbors = 2'000'000'000;
  bool replaced = false;
  const std::string crafted =
      ReframeSnapshot(valid, [&](size_t, uint32_t tag, std::string* payload) {
        if (tag == kTagParams) {
          ByteWriter params;
          params.PutString(FormatSeerParams(huge));
          *payload = params.Take();
          replaced = true;
        }
      });
  ASSERT_TRUE(replaced);
  ExpectDataLoss(crafted, "PRMS n 2000000000");
}

}  // namespace
}  // namespace seer
