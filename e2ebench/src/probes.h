// Outside-in probes. Everything here wraps or calls the program's public
// surfaces; nothing is compiled into src/.
//
//   CountingFs     an Fs decorator: calls, bytes and (when timing is on)
//                  microseconds per operation, with written/read bytes split
//                  by file kind (WAL, full snapshot, delta snapshot, aux).
//                  fsyncs are counted but not forwarded: the stores stand
//                  for tmpfs, where an fsync costs nothing, while the files
//                  stay inside the checkout (see README.md).
//   CountingClock  a pass-through HoardServiceConfig::clock: it returns the
//                  same steady-clock microseconds the service uses when no
//                  clock is given, and counts calls (one per shard-0 loop).
//   SpanLog        in-memory spans (name, start, end, parent) for the
//                  traced run, written out when the benchmark ends.
#ifndef E2EBENCH_SRC_PROBES_H_
#define E2EBENCH_SRC_PROBES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/event.h"
#include "src/util/fs.h"

namespace e2e {

using SteadyClock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

// Resident set size of this process, from /proc/self/status (0 if absent).
uint64_t ReadVmRssKb();

enum class FileKind : int { kWal = 0, kFull = 1, kDelta = 2, kAux = 3 };
constexpr int kFileKinds = 4;
const char* FileKindName(FileKind kind);
// Store file names decide the kind: wal-N.seerwal, snap-N.seersnap (and its
// .tmp), delta-N.seersnap (and its .tmp); everything else is aux.
FileKind KindOfPath(const std::string& path);

class CountingFs : public seer::Fs {
 public:
  enum Op : int {
    kRead, kWrite, kAppend, kRename, kRemove, kListDir, kMakeDirs,
    kSyncFile, kSyncDir, kExists, kFileSize, kOpCount
  };

  struct Totals {
    uint64_t calls[kOpCount] = {};
    uint64_t micros[kOpCount] = {};
    uint64_t written[kFileKinds] = {};
    uint64_t read[kFileKinds] = {};

    uint64_t BytesWritten() const;
    uint64_t BytesRead() const;
    uint64_t SyncCalls() const { return calls[kSyncFile] + calls[kSyncDir]; }
    double SyncMs() const { return (micros[kSyncFile] + micros[kSyncDir]) / 1000.0; }
    // Time in calls that change the store, fsync excluded.
    double WriteMs() const;
    // Time in calls that only look: reads, listings, stats.
    double ReadMs() const;
    Totals operator-(const Totals& base) const;
  };

  explicit CountingFs(seer::Fs* base) : base_(base) {}

  // Per-op timing costs two clock reads per call, so only the traced run
  // turns it on. Counting is always on.
  void set_timing(bool on) { timing_.store(on, std::memory_order_relaxed); }
  Totals totals() const;

  seer::StatusOr<std::string> ReadFile(const std::string& path) override;
  seer::Status WriteFile(const std::string& path, std::string_view data) override;
  seer::Status AppendFile(const std::string& path, std::string_view data) override;
  seer::Status RenameFile(const std::string& from, const std::string& to) override;
  seer::Status RemoveFile(const std::string& path) override;
  seer::StatusOr<std::vector<std::string>> ListDir(const std::string& dir) override;
  seer::Status MakeDirs(const std::string& dir) override;
  seer::Status SyncFile(const std::string& path) override;
  seer::Status SyncDir(const std::string& dir) override;
  bool Exists(const std::string& path) override;
  seer::StatusOr<uint64_t> FileSize(const std::string& path) override;

 private:
  class OpTimer;

  seer::Fs* base_;
  std::atomic<bool> timing_{false};
  std::atomic<uint64_t> calls_[kOpCount] = {};
  std::atomic<uint64_t> micros_[kOpCount] = {};
  std::atomic<uint64_t> written_[kFileKinds] = {};
  std::atomic<uint64_t> read_[kFileKinds] = {};
};

class CountingClock {
 public:
  seer::Time Now() {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return std::chrono::duration_cast<std::chrono::microseconds>(
               SteadyClock::now().time_since_epoch())
        .count();
  }
  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> calls_{0};
};

// Spans of one thread. Names must be string literals (stored by pointer).
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
  };

  int32_t Begin(const char* name);
  void End(int32_t id);

  size_t size() const { return spans_.size(); }

  // Total duration of the spans named `name`, from index `first` on.
  double TotalMs(const char* name, size_t first = 0) const;
  // Sum of the self times (duration minus the time child spans cover) of
  // spans [first, last): the time those spans account for.
  double SelfMsSum(size_t first, size_t last) const;

  // One JSON object per line: name, start_ns, end_ns, parent, thread.
  void WriteJsonLines(std::FILE* out, const char* thread) const;

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name) : log_(log), id_(log->Begin(name)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

}  // namespace e2e

#endif  // E2EBENCH_SRC_PROBES_H_
