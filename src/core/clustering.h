// Project clustering — the modified Jarvis-Patrick algorithm of
// Section 3.3.2 plus the shared-neighbor-count adjustments of
// Section 3.3.3.
//
// The classic Jarvis-Patrick algorithm computes each point's n nearest
// neighbors (O(N^2)) and merges the clusters of any two points sharing more
// than k of them. SEER's variation:
//   * reuses the relation table's existing per-file neighbor lists, giving
//     O(N) time;
//   * uses two thresholds, kn (near) and kf (far) with kn > kf: sharing at
//     least kn neighbors combines the two clusters outright, while sharing
//     at least kf (but fewer than kn) *overlaps* them — each file is added
//     to the other's cluster, without merging, so files can belong to
//     several projects at once;
//   * adjusts the shared-neighbor count with extra evidence: directory
//     distance is subtracted (files far apart in the tree are less likely
//     to cluster), and external-investigator relation strengths are added —
//     and investigated pairs are tested even when no semantic distance was
//     ever stored, so a sufficiently strong investigator can force files
//     into one project.
//
// Engine shape (see DESIGN.md §10): every Build is one pass computed from
// the learned state, keeping nothing from the build before. Edge *scoring*
// — the expensive phase — is a pure function of fixed neighbor sets, so it
// runs in parallel over candidate files on a chunked thread pool, writing
// each file's scored edges into a per-file bucket. The *union* phase then
// walks the buckets in candidate order on one thread, so the output is
// bit-identical at any thread count.
#ifndef SRC_CORE_CLUSTERING_H_
#define SRC_CORE_CLUSTERING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/file_table.h"
#include "src/core/params.h"
#include "src/core/relation_table.h"
#include "src/util/flat_map.h"

namespace seer {

class ThreadPool;

struct Cluster {
  std::vector<FileId> members;  // sorted, unique
};

// Cluster indices of one file: a borrowed view into ClusterSet's flat
// membership table (valid while the ClusterSet lives).
class ClusterIndexSpan {
 public:
  ClusterIndexSpan() = default;
  ClusterIndexSpan(const uint32_t* data, size_t size) : data_(data), size_(size) {}
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t operator[](size_t i) const { return data_[i]; }
  const uint32_t* begin() const { return data_; }
  const uint32_t* end() const { return data_ + size_; }

 private:
  const uint32_t* data_ = nullptr;
  size_t size_ = 0;
};

struct ClusterSet {
  std::vector<Cluster> clusters;
  // file -> indices into `clusters` (a file may belong to several), as a
  // FileId-indexed CSR table: two flat arrays instead of a vector-per-file,
  // so emitting membership costs two allocations, not one per file.
  std::vector<uint32_t> membership_offset;  // size files+1 (empty when no files)
  std::vector<uint32_t> membership_ids;
  // Per-cluster order-sensitive hash of the sorted member list. Cluster
  // indices are not stable across builds, so the incremental hoard-fill
  // plane identifies a cluster by (members[0], member_hash): equal hash on
  // the same representative means the membership is unchanged and the
  // cached aggregate can be reused without re-walking the members.
  std::vector<uint64_t> member_hash;

  // Clusters containing `id` (ascending); empty if unknown.
  ClusterIndexSpan ClustersOf(FileId id) const;
};

// What the last Build() actually did, for the perf surfaces
// (`seerctl cluster --stats`, bench/clustering_scale, the benchmark's layer
// replay).
struct ClusterBuildStats {
  size_t candidates = 0;
  size_t edges_scored = 0;   // adjusted-count evaluations performed
  bool incremental = false;  // always false: every build is a full pass
  int threads = 1;
  double build_ms = 0.0;
  // Phase split of build_ms, for the perf harness.
  double pack_ms = 0.0;   // candidate slotting and input refresh
  double plan_ms = 0.0;   // always 0: a build has nothing to plan
  double score_ms = 0.0;  // parallel edge scoring
  double merge_ms = 0.0;  // union + materialise + emit
};

class ClusterBuilder {
 public:
  ClusterBuilder(const SeerParams& params, const FileTable* files,
                 const RelationTable* relations);
  ~ClusterBuilder();

  // Registers investigator evidence for an unordered pair; strengths from
  // multiple investigators accumulate (Section 3.3.3).
  void AddInvestigatedPair(FileId a, FileId b, double strength);
  void ClearInvestigatedPairs();

  // Runs both phases over the given candidate files (normally
  // FileTable::LiveIds()). Files related to nothing become singleton
  // clusters. Every call computes from the current tables alone (callers
  // must serialise Build with table mutation, which the correlator/async-
  // pipeline query path already does).
  ClusterSet Build(const std::vector<FileId>& candidates) const;

  // Adjusted shared-neighbor count for an ordered pair (x in Table 1).
  // Reference implementation; Build uses an allocation-free equivalent.
  double AdjustedSharedCount(FileId from, FileId to) const;

  // Scoring-phase thread count; 0 (the default) selects DefaultThreadCount()
  // (the SEER_THREADS override, else hardware concurrency).
  void set_threads(int threads);
  int threads() const;

  // Score on a caller-owned pool instead of a private one (multi-tenant
  // pool multiplexing; see Correlator::UseSharedPool). nullptr restores
  // the private pool.
  void set_shared_pool(ThreadPool* pool);

  // Live-tuning override: new near/far thresholds and weights take effect
  // on the next Build.
  void OverrideParams(const SeerParams& params) { params_ = params; }

  const ClusterBuildStats& last_build_stats() const { return stats_; }

 private:
  struct BuildState;    // one build's inputs and scored edges (defined in the .cc)
  struct ScoreScratch;  // per-chunk scoring buffers (defined in the .cc)

  uint64_t PairKey(FileId a, FileId b) const;
  double InvestigatedStrength(FileId a, FileId b) const;
  ThreadPool* Pool() const;
  // Fills one candidate's scoring inputs — its sorted live-neighbor row and
  // its interner path view — and the sizes of its directory and edge
  // slices.
  void RefreshInputs(uint32_t slot, FileId f, BuildState* state, ScoreScratch* scratch) const;
  // Scores every edge of one candidate into its bucket, near edges first.
  void ScoreSlot(uint32_t slot, FileId f, BuildState* state, ScoreScratch* scratch,
                 size_t* edges_scored) const;

  SeerParams params_;
  const FileTable* files_;
  const RelationTable* relations_;

  FlatMap<uint64_t, double> investigated_;
  // Per-file investigated partners (both directions), in insertion order.
  std::vector<std::vector<FileId>> inv_partners_;
  int threads_ = 0;
  ThreadPool* shared_pool_ = nullptr;  // not owned; overrides pool_

  mutable std::unique_ptr<ThreadPool> pool_;
  mutable int pool_threads_ = 0;
  mutable ClusterBuildStats stats_;
};

}  // namespace seer

#endif  // SRC_CORE_CLUSTERING_H_
