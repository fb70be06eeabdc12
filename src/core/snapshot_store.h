// Generation-based durable storage for the correlator database.
//
// A store directory holds numbered snapshot/WAL generations:
//
//   snap-000007.seersnap   full sectioned snapshot (snapshot_codec.h)
//   delta-000008.seersnap  delta snapshot: only relation stripes/streams
//                          touched since generation 7
//   wal-000008.seerwal     sink events observed after generation 8
//
// Checkpointing writes snapshot N+1 via the atomic-commit protocol (temp
// file + fsync + rename + directory fsync), opens wal-(N+1) for the
// records that follow, and prunes old generations. A delta snapshot's META
// names the generation it applies over — its base is always the snapshot
// file immediately preceding it, so a chain is a full plus the contiguous
// run of deltas after it. Recovery walks heads newest-first: for each head
// it collects the chain back to the nearest full, validates META linkage,
// and folds the chain in one decode — falling back head by head past torn
// files — then replays every retained WAL of the head generation and
// newer, in order. A torn WAL tail simply ends the replay: the result is
// always a consistent state the correlator actually passed through.
//
// Invariants the layout maintains (see DESIGN.md):
//   * snapshot files are only ever observed complete (atomic rename) and
//     self-validating (per-section CRCs).
//   * wal-N is created only after generation N's snapshot is durable, and
//     generation N+1 is written only after wal-N is synced — so the
//     fallback chain snap/delta-K, wal-K, wal-K+1, ..., replayed in
//     order, is gapless for every retained K.
//   * pruning keeps whole chains: the cutoff is always a retained full
//     generation, so every retained delta's base is retained too.
#ifndef SRC_CORE_SNAPSHOT_STORE_H_
#define SRC_CORE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/correlator.h"
#include "src/core/wal.h"
#include "src/util/fs.h"
#include "src/util/status.h"

namespace seer {

struct SnapshotStoreOptions {
  // FULL snapshot generations retained after a checkpoint (with the delta
  // chains and WALs built on them). At least 2, so a torn newest chain
  // always has a fallback.
  size_t keep_generations = 2;
  // WAL write-buffer size (bytes buffered before an Fs append).
  size_t wal_flush_bytes = 1 << 16;
  // Every K-th checkpoint is a full snapshot; the K-1 between are deltas
  // (bounds chain length and recovery work). 1 disables deltas entirely.
  uint64_t full_checkpoint_every = 4;
};

class SnapshotStore {
 public:
  SnapshotStore(Fs* fs, std::string dir, SnapshotStoreOptions options = {});

  // Creates the store directory if needed.
  Status Open();

  const std::string& dir() const { return dir_; }
  const SnapshotStoreOptions& options() const { return options_; }

  std::string SnapshotPath(uint64_t generation) const;
  std::string DeltaPath(uint64_t generation) const;
  std::string WalPath(uint64_t generation) const;

  // Present snapshot generation numbers (full and delta), ascending.
  StatusOr<std::vector<uint64_t>> ListSnapshots() const;
  StatusOr<std::vector<uint64_t>> ListWals() const;

  // Snapshot files with their kind, ascending by generation. A generation
  // holds either a full or a delta, never both.
  struct SnapshotFileInfo {
    uint64_t generation = 0;
    bool delta = false;
  };
  StatusOr<std::vector<SnapshotFileInfo>> ListSnapshotFiles() const;

  // Smallest generation number above every artifact present (minimum 1).
  StatusOr<uint64_t> NextGeneration() const;

  struct RecoveryResult {
    std::unique_ptr<Correlator> correlator;
    // Generation of the snapshot loaded; 0 when the store was empty and
    // `correlator` is fresh.
    uint64_t generation = 0;
    bool fresh = false;
    uint64_t snapshots_discarded = 0;  // torn/corrupt snapshots skipped
    uint64_t wals_replayed = 0;
    uint64_t wal_records_replayed = 0;
    bool torn_wal_tail = false;  // replay ended at a damaged record
  };
  // Never writes; safe to call on a store another process produced.
  // `defaults` seeds the correlator when the store is empty. `pool`, when
  // given, decodes the chain's relation stripes in parallel; nullptr
  // decodes them serially.
  StatusOr<RecoveryResult> Recover(const SeerParams& defaults = {},
                                   ThreadPool* pool = nullptr) const;

  // Atomically writes `generation`'s full snapshot (temp + fsync + rename
  // + dir fsync). Fails with kAlreadyExists if that generation is present.
  Status WriteSnapshot(const Correlator& correlator, uint64_t generation);

  // Same atomic protocol for pre-encoded bytes (the async checkpoint path
  // encodes off-thread and hands the result here). `delta` selects the
  // delta-NNNNNN.seersnap name.
  Status WriteSnapshotBytes(std::string_view bytes, uint64_t generation, bool delta);

  // Creates generation `generation`'s WAL (headered, synced, dir-synced).
  StatusOr<std::unique_ptr<WalWriter>> CreateWal(uint64_t generation);

  struct CheckpointResult {
    uint64_t generation = 0;
    // The new generation's WAL, created and headered; subsequent sink
    // events belong to it.
    std::unique_ptr<WalWriter> wal;
  };
  // Snapshot the correlator as the next generation, open its WAL, prune.
  StatusOr<CheckpointResult> Checkpoint(const Correlator& correlator);

  // Removes whole chains beyond keep_generations full snapshots (the
  // cutoff is always a full generation, so retained deltas keep their
  // bases), WALs older than the cutoff, and stray temp files.
  Status Prune();

  struct GenerationInfo {
    uint64_t generation = 0;
    bool has_snapshot = false;
    bool is_delta = false;
    uint64_t snapshot_bytes = 0;
    bool snapshot_ok = false;  // full: decodes cleanly; delta: sections pass
    bool has_wal = false;
    uint64_t wal_bytes = 0;
    uint64_t wal_records = 0;
    WalReplayStats::Tail wal_tail = WalReplayStats::Tail::kClean;
  };
  struct StoreInfo {
    std::vector<GenerationInfo> generations;  // ascending
  };
  // Inspects every artifact (decodes snapshots, scans WALs). Read-only.
  StatusOr<StoreInfo> GetInfo() const;

  // OK iff the store recovers cleanly: at least the newest retained chain
  // is intact and WAL damage is at worst a torn tail. Per-section CRC
  // failures name the damaged section (fourcc + ordinal). `deep`
  // additionally checks every snapshot file's sections, decodes every
  // full, and validates every delta's META linkage — not just the chain
  // recovery would use.
  Status Verify(bool deep = false) const;

  // --- Multi-tenant layout ------------------------------------------------
  // A multi-tenant store root holds one ordinary store directory per
  // tenant, named tenant-NNNNNNNN (zero-padded decimal TenantId). Each is
  // a self-contained single-instance store: `seerctl db ...` and a
  // standalone DurableCorrelator read a tenant directory unchanged.
  static std::string TenantDirectory(const std::string& root, TenantId tenant);
  // TenantIds present under `root`, ascending. Non-conforming entries are
  // ignored. NotFound roots yield an empty list (a fresh server).
  static StatusOr<std::vector<TenantId>> ListTenants(Fs* fs, const std::string& root);

 private:
  StatusOr<std::vector<uint64_t>> ListByPattern(const std::string& prefix,
                                                const std::string& suffix) const;

  // Chain of files recovery would fold for the head at `head_index`:
  // nearest older full through the head, with META linkage validated.
  // Reads every chain file into `bytes`.
  Status LoadChain(const std::vector<SnapshotFileInfo>& files, size_t head_index,
                   std::vector<std::string>* bytes) const;

  std::string SnapshotFilePath(const SnapshotFileInfo& info) const;

  Fs* fs_;
  std::string dir_;
  SnapshotStoreOptions options_;
};

}  // namespace seer

#endif  // SRC_CORE_SNAPSHOT_STORE_H_
