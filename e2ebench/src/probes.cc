#include "e2ebench/src/probes.h"

#include <cstdio>
#include <cstring>
#include <fstream>

namespace e2e {

uint64_t ReadVmRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

const char* FileKindName(FileKind kind) {
  switch (kind) {
    case FileKind::kWal:
      return "wal";
    case FileKind::kFull:
      return "snapshot_full";
    case FileKind::kDelta:
      return "snapshot_delta";
    case FileKind::kAux:
      return "aux";
  }
  return "aux";
}

FileKind KindOfPath(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string_view base =
      slash == std::string::npos ? std::string_view(path) : std::string_view(path).substr(slash + 1);
  if (base.rfind("wal-", 0) == 0) {
    return FileKind::kWal;
  }
  if (base.rfind("snap-", 0) == 0) {
    return FileKind::kFull;
  }
  if (base.rfind("delta-", 0) == 0) {
    return FileKind::kDelta;
  }
  return FileKind::kAux;
}

uint64_t CountingFs::Totals::BytesWritten() const {
  uint64_t sum = 0;
  for (const uint64_t b : written) {
    sum += b;
  }
  return sum;
}

uint64_t CountingFs::Totals::BytesRead() const {
  uint64_t sum = 0;
  for (const uint64_t b : read) {
    sum += b;
  }
  return sum;
}

double CountingFs::Totals::WriteMs() const {
  return (micros[kWrite] + micros[kAppend] + micros[kRename] + micros[kRemove] +
          micros[kMakeDirs]) /
         1000.0;
}

double CountingFs::Totals::ReadMs() const {
  return (micros[kRead] + micros[kListDir] + micros[kExists] + micros[kFileSize]) / 1000.0;
}

CountingFs::Totals CountingFs::Totals::operator-(const Totals& base) const {
  Totals d;
  for (int i = 0; i < kOpCount; ++i) {
    d.calls[i] = calls[i] - base.calls[i];
    d.micros[i] = micros[i] - base.micros[i];
  }
  for (int k = 0; k < kFileKinds; ++k) {
    d.written[k] = written[k] - base.written[k];
    d.read[k] = read[k] - base.read[k];
  }
  return d;
}

CountingFs::Totals CountingFs::totals() const {
  Totals t;
  for (int i = 0; i < kOpCount; ++i) {
    t.calls[i] = calls_[i].load(std::memory_order_relaxed);
    t.micros[i] = micros_[i].load(std::memory_order_relaxed);
  }
  for (int k = 0; k < kFileKinds; ++k) {
    t.written[k] = written_[k].load(std::memory_order_relaxed);
    t.read[k] = read_[k].load(std::memory_order_relaxed);
  }
  return t;
}

// Counts one call on construction and, when timing is on, adds its
// duration on destruction.
class CountingFs::OpTimer {
 public:
  OpTimer(CountingFs* fs, Op op)
      : fs_(fs), op_(op), start_ns_(fs->timing_.load(std::memory_order_relaxed) ? NowNs() : -1) {
    fs_->calls_[op_].fetch_add(1, std::memory_order_relaxed);
  }
  ~OpTimer() {
    if (start_ns_ >= 0) {
      fs_->micros_[op_].fetch_add(static_cast<uint64_t>((NowNs() - start_ns_) / 1000),
                                  std::memory_order_relaxed);
    }
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  CountingFs* fs_;
  Op op_;
  int64_t start_ns_;
};

seer::StatusOr<std::string> CountingFs::ReadFile(const std::string& path) {
  OpTimer timer(this, kRead);
  seer::StatusOr<std::string> data = base_->ReadFile(path);
  if (data.ok()) {
    read_[static_cast<int>(KindOfPath(path))].fetch_add(data->size(), std::memory_order_relaxed);
  }
  return data;
}

seer::Status CountingFs::WriteFile(const std::string& path, std::string_view data) {
  OpTimer timer(this, kWrite);
  written_[static_cast<int>(KindOfPath(path))].fetch_add(data.size(), std::memory_order_relaxed);
  return base_->WriteFile(path, data);
}

seer::Status CountingFs::AppendFile(const std::string& path, std::string_view data) {
  OpTimer timer(this, kAppend);
  written_[static_cast<int>(KindOfPath(path))].fetch_add(data.size(), std::memory_order_relaxed);
  return base_->AppendFile(path, data);
}

seer::Status CountingFs::RenameFile(const std::string& from, const std::string& to) {
  OpTimer timer(this, kRename);
  return base_->RenameFile(from, to);
}

seer::Status CountingFs::RemoveFile(const std::string& path) {
  OpTimer timer(this, kRemove);
  return base_->RemoveFile(path);
}

seer::StatusOr<std::vector<std::string>> CountingFs::ListDir(const std::string& dir) {
  OpTimer timer(this, kListDir);
  return base_->ListDir(dir);
}

seer::Status CountingFs::MakeDirs(const std::string& dir) {
  OpTimer timer(this, kMakeDirs);
  return base_->MakeDirs(dir);
}

seer::Status CountingFs::SyncFile(const std::string& path) {
  OpTimer timer(this, kSyncFile);
  return base_->Exists(path) ? seer::Status::Ok()
                             : seer::Status::NotFound("sync of a missing file: " + path);
}

seer::Status CountingFs::SyncDir(const std::string& /*dir*/) {
  OpTimer timer(this, kSyncDir);
  return seer::Status::Ok();
}

bool CountingFs::Exists(const std::string& path) {
  OpTimer timer(this, kExists);
  return base_->Exists(path);
}

seer::StatusOr<uint64_t> CountingFs::FileSize(const std::string& path) {
  OpTimer timer(this, kFileSize);
  return base_->FileSize(path);
}

int32_t SpanLog::Begin(const char* name) {
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, NowNs(), 0, open_});
  open_ = id;
  return id;
}

void SpanLog::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  open_ = spans_[static_cast<size_t>(id)].parent;
}

double SpanLog::TotalMs(const char* name, size_t first) const {
  int64_t ns = 0;
  for (size_t i = first; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) {
      ns += spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return static_cast<double>(ns) / 1e6;
}

double SpanLog::SelfMsSum(size_t first, size_t last) const {
  // Self times partition the time the outermost spans cover, so their sum
  // is the outermost spans' total duration.
  int64_t ns = 0;
  for (size_t i = first; i < last && i < spans_.size(); ++i) {
    const int32_t p = spans_[i].parent;
    if (p < 0 || static_cast<size_t>(p) < first) {
      ns += spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return static_cast<double>(ns) / 1e6;
}

void SpanLog::WriteJsonLines(std::FILE* out, const char* thread) const {
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"thread\": \"%s\"}\n",
                 i, s.name, static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 s.parent, thread);
  }
}

}  // namespace e2e
