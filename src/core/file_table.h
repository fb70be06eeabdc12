// File identity registry.
//
// The correlator tracks tens of thousands of files (the paper's typical
// user had ~20,000); all internal structures use dense 32-bit FileIds
// rather than strings. Ingress identity is the observer's interned PathId:
// the table maps PathId -> FileId with a flat array, so the per-reference
// lookup is O(1) and allocation-free once a path has been seen. Rename is
// an id re-binding — the new PathId is pointed at the file's existing
// FileId — so the relation table, streams and clusters never rebuild
// state (Section 4.8). The table also carries the per-file metadata SEER
// needs for hoarding decisions: last-reference ordering for project
// ranking, deletion marks with delayed purge (Section 4.8), and exclusion
// marks for frequently-referenced files (Section 4.2).
#ifndef SRC_CORE_FILE_TABLE_H_
#define SRC_CORE_FILE_TABLE_H_

#include <cstdint>
#include <deque>
#include <string_view>
#include <vector>

#include "src/trace/event.h"
#include "src/util/path_interner.h"

namespace seer {

using FileId = uint32_t;
constexpr FileId kInvalidFileId = static_cast<FileId>(-1);

struct FileRecord {
  PathId path = kInvalidPathId;  // current name; kInvalidPathId when retired
  Time last_ref_time = 0;
  uint64_t last_ref_seq = 0;  // global reference counter value at last access
  uint64_t ref_count = 0;
  bool deleted = false;       // marked for deletion, purge pending
  bool excluded = false;      // dropped from distance calculations
  uint64_t deleted_at_deletion_count = 0;  // global deletion counter at mark
};

class FileTable {
 public:
  // Packed per-file liveness flags, mirrored from the FileRecord booleans.
  // The relation table's replacement and live-neighbor scans are the
  // hottest loops in ingest; loading one byte per neighbor id instead of a
  // whole FileRecord keeps them cache-dense and auto-vectorizable. The
  // mirror stays exact because every liveness flip goes through a table
  // method (Intern resurrect, MarkDeleted, MarkExcluded, RenameFile,
  // RestoreRecord) — never through GetMutable.
  static constexpr uint8_t kFlagDeleted = 1u << 0;
  static constexpr uint8_t kFlagExcluded = 1u << 1;

  // Byte per FileId: 0 = live, else kFlagDeleted|kFlagExcluded bits.
  // Valid for every id < size(); invalidated by record creation.
  const uint8_t* liveness_flags() const { return flags_.data(); }

  // --- touch epochs ---------------------------------------------------------
  //
  // Monotone counter bumped by every mutation that can change a file's
  // hoarding inputs: creation, resurrection, reference recency, deletion,
  // exclusion and rename (both ends). Consumers (the incremental hoard-fill
  // plane) snapshot touch_epoch() after a pass and later ask which files
  // moved since that snapshot — the same cheap-epoch idiom the relation
  // table uses for its stripe stamps.
  uint64_t touch_epoch() const { return touch_epoch_; }

  // Appends every id whose last touch is newer than `epoch`. A flat O(size)
  // scan over the stamp column — ~8 bytes/file of sequential reads, far
  // cheaper than the cluster walks it lets callers skip.
  void CollectTouchedSince(uint64_t epoch, std::vector<FileId>* out) const {
    for (FileId id = 0; id < touch_stamp_.size(); ++id) {
      if (touch_stamp_[id] > epoch) {
        out->push_back(id);
      }
    }
  }

  // Returns the id for `path`, creating a record if needed. A deleted
  // record is resurrected on re-reference (name reuse, Section 4.8).
  FileId Intern(PathId path);

  // Lookup without creating; kInvalidFileId when absent.
  FileId Find(PathId path) const;

  // String-ingress conveniences for query egress paths and tests.
  FileId FindPath(std::string_view path) const;

  const FileRecord& Get(FileId id) const { return records_[id]; }
  FileRecord& GetMutable(FileId id) { return records_[id]; }

  // Current spelling of `id` via the global interner (empty when retired).
  std::string_view PathOf(FileId id) const;

  size_t size() const { return records_.size(); }

  // Total length of every record's current name — the sum of PathOf(id)
  // over all ids, kept as names are bound, re-bound and retired, so a
  // memory reading costs no interner lookups. Exact for the same reason as
  // the liveness mirror: names change only through table methods.
  uint64_t path_bytes() const { return path_bytes_; }

  void RecordReference(FileId id, Time time, uint64_t seq);

  // Marks `id` deleted at the current global deletion count and returns
  // the ids whose delayed purge has now expired.
  std::vector<FileId> MarkDeleted(FileId id, uint64_t delete_delay);

  // Marks `id` excluded from distance calculations (Section 4.2).
  void MarkExcluded(FileId id);

  // Re-binds the identity of `from` to the interned name `to` (rename
  // keeps the relationship data, Section 4.8). A record previously living
  // at `to` is retired: the rename replaced that file.
  void RenameFile(FileId from, PathId to);

  uint64_t deletion_count() const { return deletion_count_; }

  // Bumped whenever a file gains the deleted mark (MarkDeleted, and the
  // record a rename retires). The relation table's row bounds hold only
  // while it is unchanged: a newly deleted neighbour can turn a rejected
  // candidate into a replacement. Not persisted.
  uint64_t deletion_marks() const { return deletion_marks_; }

  // All live (not deleted, not excluded) ids.
  std::vector<FileId> LiveIds() const;

  // --- persistence support --------------------------------------------------

  // Appends a fully-populated record (ids are assigned densely in call
  // order). Used when decoding a snapshot.
  FileId RestoreRecord(const FileRecord& record);
  void set_deletion_count(uint64_t count) { deletion_count_ = count; }

  // The delayed-purge queue travels verbatim in the snapshot: it cannot be
  // rebuilt from the records' marks when a name was deleted, resurrected,
  // and deleted again.
  const std::deque<FileId>& pending_purge() const { return pending_purge_; }
  void RestorePurgeQueue(const std::vector<FileId>& queue) {
    pending_purge_.assign(queue.begin(), queue.end());
  }

 private:
  void Bind(PathId path, FileId id);
  FileId Lookup(PathId path) const;
  void Touch(FileId id) { touch_stamp_[id] = ++touch_epoch_; }
  // Moves record `id`'s name to `path`, keeping path_bytes_ exact.
  void SetPath(FileId id, PathId path);

  std::vector<FileRecord> records_;
  // Parallel to records_: packed deleted/excluded bits (see liveness_flags).
  std::vector<uint8_t> flags_;
  // Parallel to records_: touch_epoch_ value at the file's last mutation.
  std::vector<uint64_t> touch_stamp_;
  uint64_t touch_epoch_ = 0;
  uint64_t path_bytes_ = 0;
  // PathId -> FileId, indexed by PathId. Sparse (kInvalidFileId holes) but
  // flat: one array read per reference.
  std::vector<FileId> by_path_;
  uint64_t deletion_count_ = 0;
  uint64_t deletion_marks_ = 0;
  std::deque<FileId> pending_purge_;  // deletion-marked, FIFO
};

}  // namespace seer

#endif  // SRC_CORE_FILE_TABLE_H_
