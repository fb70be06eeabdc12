// Helpers every workload shares: reporting a pass, host facts, work dirs.
#include <fcntl.h>
#include <malloc.h>
#include <poll.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <thread>

#include "e2ebench/src/workloads.h"
#include "src/server/net.h"

namespace e2e {
namespace {

const char* FilesystemName(const std::string& dir) {
  struct statfs info {};
  if (::statfs(dir.c_str(), &info) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext4";
    case 0x794c7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default:
      return "other";
  }
}

}  // namespace

void ReportPass(const PassResult& pass, double setup_s, Report* report) {
  report->Set("setup_s", setup_s, "s");
  report->Set("events_per_s", pass.events_per_s, "events/s");
  report->Set("wait_ms.p50", pass.wait_p50_ms, "ms");
  report->Set("wait_ms.p90", pass.wait_p90_ms, "ms");
  report->Set("rss_kb_per_tenant", pass.rss_kb_per_tenant, "KB");
  report->Set("bytes_written_per_event", pass.bytes_written_per_event, "B/event");
}

uint64_t TrimmedRssKb() {
  ::malloc_trim(0);
  return ReadVmRssKb();
}

uint64_t FramesDigest(const std::vector<TenantInput>& tenants) {
  uint64_t h = 1469598103934665603ULL;
  for (const TenantInput& t : tenants) {
    for (const std::string& frame : t.frames) {
      for (const char c : frame) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
      }
    }
  }
  return h;
}

void NoteHost(const Options& options, Report* report) {
  report->Note("host_cpus", std::to_string(std::thread::hardware_concurrency()));
  report->Note("server_threads", "io_threads=" + std::to_string(kIoThreads) +
                                     " pool_threads=" + std::to_string(kPoolThreads) +
                                     " (fixed, not read from SEER_THREADS)");
  report->Note("store_fs", std::string(FilesystemName(options.work_dir)) + " at " +
                               options.work_dir + " through RealFs + the counting Fs decorator");
  report->Note("flush_policy", "shipped: WAL synced at checkpoints only; the decorator counts "
                               "fsyncs but does not forward them (the stores stand for tmpfs)");
}

std::string FreshDir(const Options& options, const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(options.work_dir) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void SettleStoreFs(const Options& options) {
  const int fd = ::open(options.work_dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    (void)::syncfs(fd);
    ::close(fd);
  }
}

void ReportFsTotals(const CountingFs::Totals& totals, Report* report) {
  for (int k = 0; k < kFileKinds; ++k) {
    report->Set(std::string("util.fs.") + FileKindName(static_cast<FileKind>(k)) + "_bytes",
                static_cast<double>(totals.written[k]), "B");
  }
  report->Set("util.fs.sync_calls", static_cast<double>(totals.SyncCalls()), "count");
  report->Set("util.fs.sync_ms", totals.SyncMs(), "ms");
  report->Set("util.fs.write_ms", totals.WriteMs(), "ms");
  report->Set("util.fs.read_bytes", static_cast<double>(totals.BytesRead()), "B");
  report->Set("util.fs.read_ms", totals.ReadMs(), "ms");
}

std::string PingFrame(uint32_t id) {
  seer::wire::ControlRequest ping;
  ping.verb = seer::wire::ControlVerb::kPing;
  return seer::wire::EncodeFrame(seer::wire::FrameType::kRequest, id,
                                 seer::wire::EncodeControlRequest(ping));
}

seer::StatusOr<seer::wire::Frame> ReadFrame(int fd, seer::wire::FrameDecoder* decoder,
                                            int timeout_ms) {
  char buf[4096];
  for (;;) {
    seer::StatusOr<std::optional<seer::wire::Frame>> next = decoder->Next();
    if (!next.ok()) {
      return next.status();
    }
    if (next->has_value()) {
      return std::move(**next);
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) {
      return seer::Status::IoError("no response within the deadline");
    }
    bool would_block = false;
    seer::StatusOr<size_t> n = seer::net::ReadSome(fd, buf, sizeof(buf), &would_block);
    if (!n.ok()) {
      return n.status();
    }
    if (*n == 0 && !would_block) {
      return seer::Status::IoError("connection closed");
    }
    decoder->Append(std::string_view(buf, *n));
  }
}

void ReportLatency(const std::string& name, const std::vector<double>& ms, Report* report) {
  report->Set(name + ".p50", Quantile(ms, 0.50), "ms");
  report->Set(name + ".p90", Quantile(ms, 0.90), "ms");
  report->Set(name + ".p99", Quantile(ms, 0.99), "ms");
  report->Set(name + ".samples", static_cast<double>(ms.size()), "count");
}

void WriteSpans(const Options& options,
                const std::vector<std::pair<std::string, const SpanLog*>>& logs, Report* report) {
  const std::string path = options.work_dir + "/spans-" + options.workload + "-" +
                           std::to_string(options.seed) + ".jsonl";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    report->Fail("cannot write " + path);
    return;
  }
  size_t spans = 0;
  for (const auto& [thread, log] : logs) {
    log->WriteJsonLines(out, thread.c_str());
    spans += log->size();
  }
  std::fclose(out);
  report->Note("spans", std::to_string(spans) + " written to " + path);
}

}  // namespace e2e
