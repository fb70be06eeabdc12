// Per-file nearest-neighbor relation table.
//
// Storing all O(N^2) pairwise distances is prohibitive (Section 3.1.3), so
// SEER keeps, for each file, only the n closest neighbors it has observed.
// Each entry accumulates the observed reference distances with a geometric
// (or, for ablation, arithmetic) mean. When a closer candidate arrives and
// the list is full, replacement follows the paper's priority:
//   1. an entry whose file is marked for deletion;
//   2. the entry with the largest current mean distance (ties broken
//      randomly), replaced only if its mean exceeds the candidate's value;
//   3. an aged entry — very old and inactive — may be replaced by a newer
//      candidate regardless of distance.
//
// Storage is a fixed-capacity inline slab, not per-file heap vectors: each
// file owns n slots in structure-of-arrays form, indexed
// `from * max_neighbors + slot`, with a dense-prefix entry count per file.
// Appends push onto the prefix, replacements overwrite a slot in place and
// removals swap the last entry down — exactly the ordering the old
// vector<Neighbor> lists produced, so snapshots are byte-compatible — but
// a full-list scan is one contiguous stripe of each array (the id stripe
// for membership, the mean stripe for replacement) and steady-state
// ingest performs no per-list allocation at all.
//
// Most observations that miss a full list change nothing: no neighbour is
// deleted, every entry is nearer than the candidate and none has aged.
// The scan that proves it ends with the list's worst mean and oldest
// update ordinal; the list keeps the two as a rejection bound, and a later
// miss is dropped with the scan's last two comparisons while the bound
// holds. Any change to the list, a file gaining its deletion mark, or a
// new mean kind voids it, so a drop never differs from the full scan's.
#ifndef SRC_CORE_RELATION_TABLE_H_
#define SRC_CORE_RELATION_TABLE_H_

#include <cstdint>
#include <vector>

#include "src/core/file_table.h"
#include "src/core/params.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace seer {

// Copy of one stripe of the relation slab, taken at a checkpoint seal.
// Entries are packed file-major — file f's neighbors occupy the range
// [sum(counts[0..f)), +counts[f]) of each array — so the seal copies only
// live entries, never the slab's dead capacity slots. Sealing is the only
// work done while ingest is paused; keeping it proportional to live data
// (not reserved capacity) is what bounds the checkpoint stall.
struct RelationStripeCopy {
  uint32_t index = 0;       // stripe number (file id >> kStripeShift)
  uint32_t begin = 0;       // first file id covered
  uint32_t files = 0;       // files covered (last stripe may be short)
  std::vector<uint32_t> counts;   // size `files`
  std::vector<uint32_t> ids;      // size sum(counts), packed
  std::vector<double> logs;
  std::vector<double> lins;
  std::vector<uint32_t> obs;
  std::vector<uint64_t> upds;
};

// Materialized view of one slab entry (also the persistence carrier).
struct Neighbor {
  FileId id = kInvalidFileId;
  double log_sum = 0.0;       // geometric-mean accumulator (log space)
  double linear_sum = 0.0;    // arithmetic-mean accumulator
  uint32_t observations = 0;
  uint64_t last_update = 0;   // global update counter value

  double MeanDistance(MeanKind kind) const;
};

class RelationTable {
 public:
  // Lightweight view over one file's slab stripe. Iteration materializes
  // Neighbor values, so existing consumers (`for (const Neighbor& nb : ...)`)
  // compile unchanged; the view is invalidated by any table mutation.
  class NeighborRange {
   public:
    class Iterator {
     public:
      Iterator(const RelationTable* table, size_t slot) : table_(table), slot_(slot) {}
      Neighbor operator*() const { return table_->MaterializeSlot(slot_); }
      Iterator& operator++() {
        ++slot_;
        return *this;
      }
      bool operator!=(const Iterator& other) const { return slot_ != other.slot_; }
      bool operator==(const Iterator& other) const { return slot_ == other.slot_; }

     private:
      const RelationTable* table_;
      size_t slot_;
    };

    NeighborRange() : table_(nullptr), base_(0), count_(0) {}
    NeighborRange(const RelationTable* table, size_t base, uint32_t count)
        : table_(table), base_(base), count_(count) {}

    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    Iterator begin() const { return Iterator(table_, base_); }
    Iterator end() const { return Iterator(table_, base_ + count_); }
    Neighbor operator[](size_t i) const { return table_->MaterializeSlot(base_ + i); }

   private:
    const RelationTable* table_;
    size_t base_;
    uint32_t count_;
  };

  RelationTable(const SeerParams& params, const FileTable* files, uint64_t seed = 0x5ee12);

  // Live-tuning override (`params set` against a running service): swaps
  // in the new aging/distance knobs but pins max_neighbors to the value
  // the slab was built with — cap_ bakes the stripe geometry, so changing
  // it takes a snapshot round-trip, not an override. A new mean kind
  // voids every cached mean and row bound.
  void OverrideParams(SeerParams params);

  // Records an observation `distance` for the ordered pair (from -> to):
  // folds it into an existing entry, appends it, or runs the replacement
  // priority above. The observation's ordinal is the next update_count().
  void Observe(FileId from, FileId to, double distance);

  // Slot index of `to` in `from`'s list, or -1 when untracked.
  int32_t FindSlot(FileId from, FileId to) const;

  // Neighbor list of `from` (unordered). Empty for unknown files.
  NeighborRange NeighborsOf(FileId from) const;

  // Neighbor ids only (excluding deletion-marked and excluded files).
  std::vector<FileId> LiveNeighborIds(FileId from) const;

  // Allocation-free variant: appends the live neighbor ids to `out`
  // (clustering and hoard hot loops reuse one scratch buffer).
  void LiveNeighborIds(FileId from, std::vector<FileId>* out) const;

  // Mean distance from -> to, or a negative value when not tracked.
  double DistanceOrNegative(FileId from, FileId to) const;

  // Drops `id` from every list and clears its own list. Called when a file
  // is purged after its deletion delay or excluded as frequent. O(degree)
  // via the reverse index, not a scan of every list.
  void Purge(FileId id);

  uint64_t update_count() const { return update_count_; }
  int max_neighbors() const { return cap_; }

  // Approximate bytes used, for the Section 5.3 memory accounting bench.
  size_t MemoryBytes() const;

  // --- checkpoint-plane support: stripe dirty epochs + seal copies ----------
  //
  // Delta checkpoints need to know which parts of the *slab data* changed
  // since the last generation. The slab is divided into stripes of
  // kStripeSize files, and every slab mutation — fold, insert, replace,
  // swap-remove, restore — stamps the owning file's stripe with a fresh
  // data epoch. A stripe whose stamp is older than the last sealed
  // cut is bit-identical to the previous snapshot and can be omitted.

  static constexpr uint32_t kStripeShift = 8;
  static constexpr uint32_t kStripeSize = 1u << kStripeShift;  // files per stripe

  // Current data epoch (stamped value of the latest slab mutation).
  uint64_t data_epoch() const { return data_epoch_; }

  // Appends stripe copies covering files [0, file_count) to `out`.
  // full: every stripe holding at least one entry (all-empty stripes are
  // skipped — a reader treats an absent stripe as empty). Otherwise: every
  // stripe stamped after `since_epoch`, *including* now-empty ones, so a
  // delta can mask a stale base stripe.
  void CopyStripes(bool full, uint64_t since_epoch, size_t file_count,
                   std::vector<RelationStripeCopy>* out) const;

  // --- persistence support --------------------------------------------------
  //
  // In-place parallel restore (snapshot chain decode): BeginRestore sizes
  // the slab for `file_count` files and hands back raw array pointers;
  // workers then fill disjoint stripe ranges (ids/logs/lins/obs/upds plus
  // the per-file counts) concurrently. FinishRestore rebuilds the reverse
  // index and stripe stamps sequentially. Only valid on a freshly constructed
  // table.
  struct SlabAccess {
    FileId* ids = nullptr;
    double* logs = nullptr;
    double* lins = nullptr;
    uint32_t* obs = nullptr;
    uint64_t* upds = nullptr;
    uint32_t* counts = nullptr;
    size_t cap = 0;
  };
  SlabAccess BeginRestore(size_t file_count);
  void FinishRestore(size_t file_count);

  void set_update_count(uint64_t count) { update_count_ = count; }

  // The tie-break key state travels with the snapshot so that updates
  // replayed from the WAL after recovery break ties exactly as the
  // never-crashed instance would have. The state never advances: tie
  // decisions are a pure function (TieDraw) of this key and the
  // observation's global ordinal, so the snapshot bytes do not depend on
  // how many draws came before.
  void GetRngState(uint64_t out[4]) const { rng_.GetState(out); }
  void SetRngState(const uint64_t in[4]) {
    rng_.SetState(in);
    RefreshTieKey();
  }

 private:
  friend class NeighborRange;

  void EnsureSize(FileId id);
  void StampData(FileId id);
  void RevAdd(FileId owner, FileId neighbor);
  void RevRemove(FileId owner, FileId neighbor);

  // Bookkeeping for a structural change to `from`'s list: `added`
  // replaced `removed` (kInvalidFileId when appended).
  void NoteStructure(FileId from, FileId removed, FileId added);

  // Stateless tie-break draw for the priority-2 reservoir: a pure hash of
  // the never-advancing key, the observation's global ordinal, and the
  // tying slot index.
  uint64_t TieDraw(uint64_t ordinal, uint32_t slot) const;
  void RefreshTieKey();

  Neighbor MaterializeSlot(size_t slot) const;

  // Mean of slab entry `slot` computed fresh (no cache access).
  double MeanOfSlot(size_t slot) const;

  // Rebuilds log_table_ for the current distance horizon and zero floor.
  void RebuildLogTable();

  // Overwrites slab entry `slot` with a fresh single-observation candidate
  // stamped with the observation's global ordinal.
  void WriteCandidate(size_t slot, FileId to, double cand_log, double distance,
                      uint64_t ordinal);

  SeerParams params_;
  const FileTable* files_;
  int cap_ = 0;  // slots per file (params_.max_neighbors)

  // The slab: structure-of-arrays, file `f` owns [f * cap_, f * cap_ + cap_).
  // Only the first nb_count_[f] slots of a stripe are live.
  std::vector<FileId> nb_id_;
  std::vector<double> nb_log_;
  std::vector<double> nb_lin_;
  std::vector<uint32_t> nb_obs_;
  std::vector<uint64_t> nb_upd_;
  // Lazy mean cache, refreshed by the replacement scan. A line is current
  // iff nb_mean_upd_ equals the entry's last-update ordinal (ordinals only
  // grow, so any fold or overwrite invalidates it with no extra store).
  // The cached value is bit-identical to a fresh computation, so caching
  // never changes a replacement decision, and it is never serialized.
  std::vector<double> nb_mean_;
  std::vector<uint64_t> nb_mean_upd_;  // nb_upd_ value the cache line is for
  std::vector<uint32_t> nb_count_;

  // Per-file rejection bound (see the file comment): the worst mean and
  // oldest update ordinal a full scan of the list ended with, and the file
  // table's deletion_marks() when it did. StampData voids it.
  static constexpr uint64_t kBoundVoid = UINT64_MAX;
  struct RowBound {
    double worst = 0.0;
    uint64_t oldest = 0;
    uint64_t marks = kBoundVoid;
  };
  std::vector<RowBound> bound_;

  // log of the floored distance d, and exp of that log, for the integers
  // d in [0, min(M, kLogTableMax)]: the values std::log/std::exp return,
  // looked up. The lifetime and sequence measures only emit such d.
  static constexpr int kLogTableMax = 4096;
  struct LogEntry {
    double log;
    double exp;
  };
  std::vector<LogEntry> log_table_;

  // reverse_[id] = files whose lists contain id. Maintained by every list
  // mutation; an id appears at most once per owner (lists are id-unique).
  std::vector<std::vector<FileId>> reverse_;
  // Per-stripe stamp of the last slab data mutation, against data_epoch_.
  std::vector<uint64_t> stripe_stamp_;
  uint64_t data_epoch_ = 0;
  uint64_t update_count_ = 0;
  mutable Rng rng_;        // serialized tie-break state; never advances
  uint64_t tie_key_ = 0;   // derived from rng_ state (RefreshTieKey)
};

}  // namespace seer

#endif  // SRC_CORE_RELATION_TABLE_H_
