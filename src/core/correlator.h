// The SEER correlator.
//
// Consumes the observer's cleaned reference stream, measures semantic
// distances between file references on a per-process basis, maintains the
// per-file nearest-neighbor relation table, and — when new hoard contents
// are to be chosen — runs the clustering algorithm to group files into
// projects (Section 2). External investigators can be registered; their
// relations are folded into the clustering decision (Sections 3.2, 3.3.3).
//
// The per-reference hot path is identity-only: the observer hands over
// interned PathIds, the file table maps them to dense FileIds with a flat
// array, and distance observations accumulate in a reused scratch buffer —
// no heap allocation once a path has been seen. Strings reappear only on
// the query egress (Distance/NeighborPaths diagnostics, persistence).
//
// Ingest is serial. Two entry points produce identical state:
//
//  * the ReferenceSink methods, one event at a time — the path durable
//    ingest and WAL recovery take; and
//  * IngestBatch, which holds a batch's references back in segments: a
//    segment is measured against its process streams, then folded into
//    the relation table in trace order. Barrier events (fork, exit,
//    delete, rename, exclude) and a reference that would resurrect a
//    deleted file cut segments, so liveness is frozen while a segment is
//    measured and the fold sees exactly what per-event ingest would.
//
// Cluster builds are serial too. The correlator's one parallel phase is
// snapshot chain decode, on a pool the caller passes in; DESIGN.md §11
// records why ingest is not one.
#ifndef SRC_CORE_CORRELATOR_H_
#define SRC_CORE_CORRELATOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/clustering.h"
#include "src/core/file_table.h"
#include "src/core/investigator.h"
#include "src/core/params.h"
#include "src/core/reference_streams.h"
#include "src/core/relation_table.h"
#include "src/core/snapshot_codec.h"
#include "src/observer/reference.h"
#include "src/util/status.h"

namespace seer {

// One queued sink event, POD so ring buffers and batch vectors never
// allocate per event. Shared by the AsyncCorrelator queue and BatchingSink.
struct IngestEvent {
  enum class Kind : uint8_t {
    kReference,
    kFork,
    kExit,
    kDeleted,
    kRenamed,
    kExcluded,
  };
  Kind kind = Kind::kReference;
  FileReference ref;                 // kReference
  Pid parent = 0;                    // kFork
  Pid child = 0;                     // kFork / kExit (child doubles as the pid)
  PathId path = kInvalidPathId;      // kDeleted / kRenamed(from) / kExcluded
  PathId path2 = kInvalidPathId;     // kRenamed(to)
  Time time = 0;
};

// Counters describing what the batched ingest path actually did.
struct IngestStats {
  uint64_t batches = 0;   // IngestBatch calls
  uint64_t segments = 0;  // measure/fold rounds
  uint64_t refs = 0;      // reference events ingested via batches
  uint64_t barriers = 0;  // non-reference events (segment cuts)
  // Phase timing (accumulated wall time), for the `seerctl replay --stats`
  // per-phase breakdown.
  uint64_t measure_us = 0;      // distance measurement
  uint64_t fold_us = 0;         // relation fold
  uint64_t serial_folds = 0;    // segments folded (every fold is serial)
  uint64_t parallel_folds = 0;  // always 0: the parallel fold was deleted
};

class Correlator : public ReferenceSink {
 public:
  explicit Correlator(const SeerParams& params = SeerParams(), uint64_t seed = 0x5ee8);

  // --- ReferenceSink ------------------------------------------------------
  void OnReference(const FileReference& ref) override;
  void OnProcessFork(Pid parent, Pid child) override;
  void OnProcessExit(Pid pid) override;
  void OnFileDeleted(PathId path, Time time) override;
  void OnFileRenamed(PathId from, PathId to, Time time) override;
  void OnFileExcluded(PathId path) override;

  // --- Batched ingest ------------------------------------------------------

  // Applies `count` events in segments: consecutive references wait in
  // trace order until a barrier event, or a reference that would
  // resurrect a deleted file, cuts the segment; the segment is then
  // measured against its streams and folded into the relation table in
  // trace order. End state is bit-identical to feeding the same events
  // through the sink methods one at a time.
  void IngestBatch(const IngestEvent* events, size_t count);

  // No-op: cluster builds are serial. Only e2ebench/ still calls it; it
  // goes with that benchmark's next change.
  void UseSharedPool(ThreadPool* /*pool*/) {}

  const IngestStats& ingest_stats() const { return ingest_stats_; }

  // --- Investigators ------------------------------------------------------

  // Registers an investigator; it runs against all known live files each
  // time RunInvestigators() is called (typically just before clustering),
  // including the files the call's own relations intern.
  void AddInvestigator(std::unique_ptr<Investigator> investigator);
  void RunInvestigators(const SimFilesystem& fs);

  // Direct injection of relations (e.g. from a replayed investigator log).
  void AddInvestigatedRelation(const InvestigatedRelation& relation);

  // --- Clustering & queries ----------------------------------------------

  // Groups all live files into (possibly overlapping) projects.
  ClusterSet BuildClusters() const;

  // What the most recent BuildClusters actually did.
  const ClusterBuildStats& last_cluster_stats() const {
    return clusters_.last_build_stats();
  }

  const FileTable& files() const { return files_; }
  const RelationTable& relations() const { return relations_; }
  const SeerParams& params() const { return params_; }

  // Live-tuning override (`seerctl params set` against a running
  // service): swaps the dynamically-read knobs on this correlator and its
  // relation table, streams, and cluster builder. max_neighbors is pinned
  // to the current value — it bakes the relation slab's geometry at
  // construction, so changing it takes an evict/restore cycle with new
  // defaults, not an override. The new knobs apply from the next event
  // on; flush a BatchingSink first so the boundary between old- and
  // new-params measurement is deterministic.
  void OverrideTuningParams(const SeerParams& params);

  // Mean semantic distance from -> to, or negative when untracked.
  // String-keyed diagnostic egress.
  double Distance(const std::string& from, const std::string& to) const;

  // Neighbor paths of a file, for diagnostics.
  std::vector<std::string> NeighborPaths(const std::string& path) const;

  uint64_t references_processed() const { return references_processed_; }

  // Approximate resident bytes (file table + relation lists + streams),
  // for the Section 5.3 memory bench.
  size_t MemoryBytes() const;

  // --- persistence ------------------------------------------------------------
  // The sectioned binary snapshot (snapshot_codec.h) is the one persisted
  // form: SnapshotStore checkpoints, tenant stores, and seerctl database
  // files. CRC32-checksummed sections cover params, the path table, the
  // file table (purge queue included), the relation table (tie-break key
  // included), and the live reference streams. Decoding a snapshot
  // restores the complete learning state, so replaying the WAL on top
  // reproduces the never-crashed correlator byte for byte. Any malformed
  // input decodes to kDataLoss.
  std::string EncodeSnapshot() const;
  static StatusOr<std::unique_ptr<Correlator>> DecodeSnapshot(std::string_view bytes);

  // --- checkpoint plane ----------------------------------------------------
  //
  // SealSnapshot deep-copies everything a checkpoint needs (the only work
  // done while ingest is paused); EncodeSealedSnapshot then serializes the
  // copy off-thread. EncodeSnapshot() above is a convenience wrapper: a
  // full seal encoded serially (seerctl database files, tests, and the
  // equality oracle).

  struct SealRequest {
    bool delta = false;
    uint64_t base_generation = 0;  // generation the delta applies over
    // Epoch cuts of the base generation; the seal exports only relation
    // stripes / streams touched after them. Ignored for a full seal.
    uint64_t relation_epoch = 0;
    uint64_t stream_epoch = 0;
  };
  SealedSnapshot SealSnapshot(const SealRequest& req) const;
  SealedSnapshot SealSnapshot() const { return SealSnapshot(SealRequest()); }

  // Decodes a base snapshot plus its delta chain (oldest first; a single
  // full snapshot is the one-element chain). Relation stripes decode in
  // parallel on `pool` straight into the slab; nullptr decodes serially.
  static StatusOr<std::unique_ptr<Correlator>> DecodeSnapshotChain(
      const std::vector<std::string_view>& chain, ThreadPool* pool = nullptr);

  // Drops stream-removal log entries up to `epoch` once the checkpoint
  // that exported them is durable.
  void TrimStreamRemovals(uint64_t epoch) { streams_.TrimRemovalLog(epoch); }

 private:
  // A reference held back until its segment is measured.
  struct PendingRef {
    RefKind kind = RefKind::kPoint;
    Pid pid = 0;
    FileId id = kInvalidFileId;
    Time time = 0;
  };

  // Measures the pending segment, then folds its observations.
  void FlushSegment();

  SeerParams params_;
  FileTable files_;
  RelationTable relations_;
  ReferenceStreams streams_;
  ClusterBuilder clusters_;
  std::vector<std::unique_ptr<Investigator>> investigators_;
  std::vector<DistanceObservation> scratch_obs_;  // reused per reference
  uint64_t references_processed_ = 0;
  uint64_t global_ref_seq_ = 0;

  // Batched-ingest scratch, reused across segments: the pending references
  // and their observations, both in trace order.
  std::vector<PendingRef> segment_;
  std::vector<DistanceObservation> segment_obs_;
  IngestStats ingest_stats_;
};

// ReferenceSink adapter over IngestBatch: drop it between an observer and
// a correlator to replay through the batched path with unchanged
// semantics. Events wait until `capacity` have gathered (or an explicit
// Flush); the destructor flushes the tail batch. Not thread-safe; flush
// before reading the correlator.
class BatchingSink : public ReferenceSink {
 public:
  explicit BatchingSink(Correlator* correlator, size_t capacity = 1024)
      : correlator_(correlator), capacity_(capacity == 0 ? 1 : capacity) {
    events_.reserve(capacity_);
  }
  ~BatchingSink() override { Flush(); }

  void OnReference(const FileReference& ref) override {
    IngestEvent e;
    e.kind = IngestEvent::Kind::kReference;
    e.ref = ref;
    Add(e);
  }
  void OnProcessFork(Pid parent, Pid child) override {
    IngestEvent e;
    e.kind = IngestEvent::Kind::kFork;
    e.parent = parent;
    e.child = child;
    Add(e);
  }
  void OnProcessExit(Pid pid) override {
    IngestEvent e;
    e.kind = IngestEvent::Kind::kExit;
    e.child = pid;
    Add(e);
  }
  void OnFileDeleted(PathId path, Time time) override {
    IngestEvent e;
    e.kind = IngestEvent::Kind::kDeleted;
    e.path = path;
    e.time = time;
    Add(e);
  }
  void OnFileRenamed(PathId from, PathId to, Time time) override {
    IngestEvent e;
    e.kind = IngestEvent::Kind::kRenamed;
    e.path = from;
    e.path2 = to;
    e.time = time;
    Add(e);
  }
  void OnFileExcluded(PathId path) override {
    IngestEvent e;
    e.kind = IngestEvent::Kind::kExcluded;
    e.path = path;
    Add(e);
  }

  void Flush() {
    if (events_.empty()) {
      return;
    }
    correlator_->IngestBatch(events_.data(), events_.size());
    events_.clear();
  }

 private:
  void Add(const IngestEvent& event) {
    events_.push_back(event);
    if (events_.size() >= capacity_) {
      Flush();
    }
  }

  Correlator* correlator_;
  size_t capacity_;
  std::vector<IngestEvent> events_;
};

}  // namespace seer

#endif  // SRC_CORE_CORRELATOR_H_
