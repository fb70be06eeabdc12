// Per-process reference streams and semantic-distance measurement.
//
// Implements the three distance definitions of Section 3.1.1 — temporal,
// sequence-based, and lifetime-based — on a per-process basis (Section 4.7):
// each process has its own reference history, histories are inherited at
// fork, and a child's recent history is merged back into its parent at exit
// so relationships spanning the two can still be detected.
//
// For the production lifetime measure (Definition 3) the distance from an
// open of A to a later open of B is 0 when A is still open, and otherwise
// the number of intervening opens including B's own (equivalently,
// openindex(B) - openindex(A) for the most recent open of A — the "closest
// pair" rule of the paper's footnote). Distances larger than the horizon M
// are clamped to M (the compensation insertion of Section 3.1.3), and only
// files opened within the last M opens generate updates at all.
//
// Storage is allocation-free in steady state: per-stream file state lives in
// an open-addressing FlatMap (no node allocation per tracked file) and the
// recent-open window is a power-of-two ring buffer (no deque block churn).
// Files currently held open are additionally tracked in a sorted id vector,
// which makes the distance-0 emission order deterministic — ascending
// FileId — rather than hash-iteration order, so a stream restored from a
// snapshot emits byte-identical observations to the live instance.
#ifndef SRC_CORE_REFERENCE_STREAMS_H_
#define SRC_CORE_REFERENCE_STREAMS_H_

#include <unordered_map>
#include <vector>

#include "src/core/file_table.h"
#include "src/core/params.h"
#include "src/trace/event.h"
#include "src/util/flat_map.h"

namespace seer {

// One measured distance from an earlier reference to the current one.
struct DistanceObservation {
  FileId from = kInvalidFileId;
  FileId to = kInvalidFileId;
  double distance = 0.0;
};

class ReferenceStreams {
 public:
  struct FileState {
    uint64_t last_open_index = 0;
    uint64_t last_ref_index = 0;
    Time last_open_time = 0;
    uint32_t open_nesting = 0;
    // Set when a long-held file closed outside the horizon: its true
    // distance to later references exceeds M, so M is reported instead
    // (the compensation insertion of Section 3.1.3).
    bool compensated = false;
  };

  // Fixed-stride ring of recent opens, (file, open index); oldest first.
  // Stale entries (superseded by a more recent open of the same file) are
  // skipped lazily by readers. Grows by linearizing into a doubled buffer.
  class WindowRing {
   public:
    struct Entry {
      FileId file = kInvalidFileId;
      uint64_t idx = 0;
    };

    bool empty() const { return count_ == 0; }
    size_t size() const { return count_; }
    const Entry& front() const { return slots_[head_]; }

    void push_back(FileId file, uint64_t idx) {
      if (count_ == slots_.size()) {
        Grow();
      }
      slots_[(head_ + count_) & (slots_.size() - 1)] = {file, idx};
      ++count_;
    }

    void pop_front() {
      head_ = (head_ + 1) & (slots_.size() - 1);
      --count_;
    }

    // Visits (file, idx) oldest to newest.
    template <typename Fn>
    void ForEach(Fn&& fn) const {
      const size_t mask = slots_.size() - 1;
      for (size_t i = 0; i < count_; ++i) {
        const Entry& e = slots_[(head_ + i) & mask];
        fn(e.file, e.idx);
      }
    }

    size_t MemoryBytes() const { return slots_.capacity() * sizeof(Entry); }

   private:
    void Grow() {
      std::vector<Entry> bigger(slots_.size() * 2);
      const size_t mask = slots_.size() - 1;
      for (size_t i = 0; i < count_; ++i) {
        bigger[i] = slots_[(head_ + i) & mask];
      }
      slots_ = std::move(bigger);
      head_ = 0;
    }

    std::vector<Entry> slots_ = std::vector<Entry>(16);
    size_t head_ = 0;
    size_t count_ = 0;
  };

  // One process's reference history. Copyable (fork inherits by copy).
  struct Stream {
    Pid parent = 0;
    uint64_t open_counter = 0;
    uint64_t ref_counter = 0;
    FlatMap<FileId, FileState> files{kInvalidFileId};
    WindowRing window;
    // Files with open_nesting > 0, sorted ascending — the deterministic
    // iteration order for distance-0 emission.
    std::vector<FileId> open_files;
    // Last mutation epoch, for delta checkpoints. Stamped on every access
    // that may mutate the stream: each reference (GetStream), the child's
    // copy at fork, and the parent's merge at exit.
    uint64_t dirty_stamp = 0;
  };

  explicit ReferenceStreams(const SeerParams& params) : params_(params) {}

  // Live-tuning override: distance measurement picks up the new horizon /
  // distance-kind knobs from the next reference on.
  void OverrideParams(const SeerParams& params) { params_ = params; }

  // An open of `file` by `pid`: appends to `out` the distance observations
  // from every file referenced within the horizon to `file`. Out-param so
  // the correlator can reuse one scratch buffer — the per-reference hot
  // path allocates nothing in steady state.
  void OnBegin(Pid pid, FileId file, Time time, std::vector<DistanceObservation>* out);

  // The matching close.
  void OnEnd(Pid pid, FileId file);

  // A point reference (open immediately followed by close).
  void OnPoint(Pid pid, FileId file, Time time, std::vector<DistanceObservation>* out);

  // Fork: the child inherits a copy of the parent's history.
  void OnFork(Pid parent, Pid child);

  // Exit: the process's recent history is merged into its parent's stream
  // (quietly — no new observations; future parent references will see the
  // child's files), then discarded.
  void OnExit(Pid pid);

  size_t stream_count() const { return streams_.size(); }

  // Approximate bytes used (Section 5.3 memory accounting).
  size_t MemoryBytes() const;

  // --- persistence support --------------------------------------------------
  //
  // Streams are part of the crash-consistent snapshot: a recovered
  // correlator must measure the same distances for post-checkpoint
  // references as the never-crashed instance, and those distances depend on
  // the open windows live at checkpoint time. The exported form is fully
  // ordered (streams by pid, files by id) so snapshot bytes are
  // deterministic regardless of hash-map iteration order.

  struct ExportedFileState {
    FileId file = kInvalidFileId;
    uint64_t last_open_index = 0;
    uint64_t last_ref_index = 0;
    Time last_open_time = 0;
    uint32_t open_nesting = 0;
    bool compensated = false;
  };

  struct ExportedStream {
    Pid pid = 0;
    Pid parent = 0;
    uint64_t open_counter = 0;
    uint64_t ref_counter = 0;
    std::vector<ExportedFileState> files;              // sorted by file id
    std::vector<std::pair<FileId, uint64_t>> window;   // oldest first
  };

  std::vector<ExportedStream> Export() const;  // sorted by pid
  void Restore(const std::vector<ExportedStream>& streams);

  // --- delta-checkpoint support --------------------------------------------
  //
  // A delta snapshot carries only the streams touched since the last sealed
  // cut, plus the pids of streams that exited since then (so recovery can
  // drop them from the base). Stamps are conservative: a stamped stream may
  // be byte-identical to its base copy, but an unstamped one never differs.

  // Current mutation epoch (stamped value of the latest stream mutation).
  uint64_t mutation_epoch() const { return mutation_epoch_; }

  // Exported copies of streams stamped after `epoch`, sorted by pid.
  std::vector<ExportedStream> ExportDirtySince(uint64_t epoch) const;

  // Pids of streams removed (process exit) after `epoch`, sorted + deduped.
  std::vector<Pid> RemovedSince(uint64_t epoch) const;

  // Drops removal-log entries at or before `epoch` (called once the cut
  // they were exported under is durably committed).
  void TrimRemovalLog(uint64_t epoch);

 private:
  Stream& GetStream(Pid pid);
  void Reference(Stream& s, FileId file, Time time, bool keep_open,
                 std::vector<DistanceObservation>* out);
  void EndOn(Stream& s, FileId file);
  void PruneWindow(Stream& s);
  static void OpenAdd(Stream& s, FileId file);
  static void OpenRemove(Stream& s, FileId file);
  static ExportedStream ExportOne(Pid pid, const Stream& s);

  SeerParams params_;
  std::unordered_map<Pid, Stream> streams_;
  uint64_t mutation_epoch_ = 0;
  // (epoch, pid) per OnExit-erased stream, append-ordered (epoch ascending).
  std::vector<std::pair<uint64_t, Pid>> removals_;
};

}  // namespace seer

#endif  // SRC_CORE_REFERENCE_STREAMS_H_
