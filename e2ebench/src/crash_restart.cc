// crash_restart: time to serve after a crash.
//
// Set-up: a forked server child is streamed every tenant's history with
// checkpoints between parts (full + delta chains), then a WAL tail; after
// the last barrier is acked the child is SIGKILLed. Timed part: a fresh
// in-process HoardService on an untouched copy of that root (copied outside
// the timer), probed over one connection: each tenant in turn gets one small
// frame plus a barrier. One prober, because restores serialize under the
// service's exclusive plane lock anyway, and alone each restore's latency
// is its own rather than a place in a queue. Snapshot-chain decode and WAL
// replay do most of the work — the mirror of fleet_stream's encode and WAL
// append. The restart repeats on fresh copies until --seconds have passed.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "e2ebench/src/workloads.h"
#include "src/core/durable_correlator.h"
#include "src/core/snapshot_store.h"
#include "src/observer/observer.h"
#include "src/server/client.h"
#include "src/server/net.h"
#include "src/server/service.h"
#include "src/util/fs.h"
#include "src/util/thread_pool.h"

namespace e2e {
namespace {

constexpr size_t kTenants = 108;  // 12 per profile; >= 100 restores per recovery
constexpr size_t kParts = 4;      // 3 checkpointed parts, then the WAL tail
constexpr size_t kEventsPerFrame = 256;
constexpr size_t kFramesPerPart = 4;
constexpr size_t kProbeEvents = 16;
constexpr size_t kStreamers = 4;  // set-up connections into the child
constexpr int kMinRestarts = 3;

struct Inputs {
  std::vector<TenantInput> history;  // kParts * kFramesPerPart frames each
  std::vector<TenantInput> probes;   // one frame each: the trace's next events
  uint64_t events = 0;               // history events the crashed stores hold
};

Inputs Generate(const Options& options) {
  Inputs in;
  const size_t history = kParts * kFramesPerPart * kEventsPerFrame;
  for (size_t t = 0; t < kTenants; ++t) {
    const seer::TenantId id = static_cast<seer::TenantId>(t + 1);
    const char profile = kProfiles[t % (sizeof(kProfiles) - 1)];
    std::vector<seer::TraceEvent> trace =
        TenantTrace(options.seed, id, profile, history + kProbeEvents);
    const std::vector<seer::TraceEvent> probe(trace.begin() + static_cast<ptrdiff_t>(history),
                                              trace.end());
    trace.resize(history);
    in.history.push_back(EncodeTenant(id, profile, trace, kEventsPerFrame));
    in.probes.push_back(EncodeTenant(id, profile, probe, kEventsPerFrame));
    in.events += trace.size();
  }
  return in;
}

seer::HoardServiceConfig ServiceConfig() {
  seer::HoardServiceConfig config;
  config.io_threads = kIoThreads;
  config.router.threads = kPoolThreads;
  // Checkpoints happen where the set-up asks for them, never on a timer.
  config.router.checkpoint_interval = 1000 * seer::kMicrosPerHour;
  config.router.wal_checkpoint_bytes = uint64_t{1} << 40;
  // A 4 KiB WAL write buffer, so the SIGKILL leaves WAL tails on disk that
  // recovery must replay (the default 64 KiB would hold most of each tail
  // in memory). The sync policy is the shipped one.
  config.router.store_options.wal_flush_bytes = 4096;
  return config;
}

seer::Status Control(int fd, seer::wire::FrameDecoder* decoder, seer::wire::ControlVerb verb,
                     seer::TenantId tenant, uint32_t id) {
  seer::wire::ControlRequest request;
  request.verb = verb;
  request.tenant = tenant;
  SEER_RETURN_IF_ERROR(seer::net::SendAll(
      fd, seer::wire::EncodeFrame(seer::wire::FrameType::kRequest, id,
                                  seer::wire::EncodeControlRequest(request))));
  SEER_ASSIGN_OR_RETURN(const seer::wire::Frame reply, ReadFrame(fd, decoder, 60'000));
  SEER_ASSIGN_OR_RETURN(const seer::wire::ControlResponse response,
                        seer::wire::DecodeControlResponse(reply.payload));
  return response.ToStatus();
}

seer::StatusOr<seer::net::OwnedFd> ConnectWithRetry(const std::string& socket) {
  SEER_ASSIGN_OR_RETURN(const seer::net::Endpoint endpoint,
                        seer::net::ParseEndpoint("unix:" + socket));
  seer::Status last;
  for (int attempt = 0; attempt < 200; ++attempt) {
    seer::StatusOr<seer::net::OwnedFd> fd = seer::net::Connect(endpoint);
    if (fd.ok()) {
      return fd;
    }
    last = fd.status();
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return last;
}

// Streams one prober's share of tenants into the child: part, checkpoint,
// part, checkpoint, ..., tail, barrier.
seer::Status StreamHistory(const std::string& socket, const Inputs& in, size_t prober) {
  SEER_ASSIGN_OR_RETURN(seer::net::OwnedFd fd, ConnectWithRetry(socket));
  seer::wire::FrameDecoder decoder;
  uint32_t id = 1;
  for (size_t t = prober; t < in.history.size(); t += kStreamers) {
    const TenantInput& tenant = in.history[t];
    for (size_t f = 0; f < tenant.frames.size(); ++f) {
      SEER_RETURN_IF_ERROR(seer::net::SendAll(fd.get(), tenant.frames[f]));
      const bool part_end = (f + 1) % kFramesPerPart == 0;
      if (part_end && f + 1 < tenant.frames.size()) {
        SEER_RETURN_IF_ERROR(Control(fd.get(), &decoder, seer::wire::ControlVerb::kTenantCheckpoint,
                                     tenant.id, id++));
      }
    }
  }
  return Control(fd.get(), &decoder, seer::wire::ControlVerb::kPing, seer::kInvalidTenantId, id);
}

// Forks the server child, streams every tenant, SIGKILLs it after the last
// barrier. The parent has started no threads when it forks.
bool BuildCrashedStore(const Options& options, const Inputs& in, const std::string& root,
                       Report* report) {
  const std::string socket = "crash-child.sock";
  std::fflush(nullptr);
  const pid_t child = ::fork();
  if (child < 0) {
    report->Fail("crash_restart: fork failed");
    return false;
  }
  if (child == 0) {
    seer::RealFs real;
    CountingFs fs(&real);
    seer::HoardService service(&fs, root, ServiceConfig());
    if (!service.Listen("unix:" + socket).ok()) {
      ::_exit(3);
    }
    (void)service.Serve();
    ::_exit(0);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> streams;
  for (size_t p = 0; p < kStreamers; ++p) {
    streams.emplace_back([&, p] {
      if (const seer::Status s = StreamHistory(socket, in, p); !s.ok()) {
        std::fprintf(stderr, "crash_restart: stream %zu: %s\n", p, s.message().c_str());
        ++failures;
      }
    });
  }
  for (std::thread& s : streams) {
    s.join();
  }
  ::kill(child, SIGKILL);
  int status = 0;
  ::waitpid(child, &status, 0);
  ::unlink((options.work_dir + "/" + socket).c_str());
  if (failures.load() > 0) {
    report->Fail("crash_restart: streaming the history into the child failed");
    return false;
  }
  return true;
}

struct RestartOutput {
  double recover_s = 0.0;
  std::vector<double> restore_ms;
  uint64_t probes = 0;
  uint64_t failed = 0;
  double rss_kb_per_tenant = 0.0;
  double memory_kb_per_tenant = 0.0;
  uint64_t restores = 0;
  CountingFs::Totals fs;
  SpanLog spans;
};

// One restart on a fresh copy of the crashed root. When `check_root` is
// non-empty, every restored tenant is compared with an offline one-thread
// DurableCorrelator::Open of that (second, untouched) copy after the same
// probe.
bool Restart(const Options& options, const Inputs& in, const std::string& crashed, bool traced,
             const std::string& check_root, RestartOutput* out, Report* report) {
  const std::string root = FreshDir(options, "crash-restart");
  std::filesystem::copy(crashed, root, std::filesystem::copy_options::recursive);
  SettleStoreFs(options);
  seer::RealFs real;
  CountingFs fs(&real);
  fs.set_timing(traced);
  const std::string socket = "crash-restart.sock";

  const uint64_t rss_before = TrimmedRssKb();
  const CountingFs::Totals fs_before = fs.totals();
  const auto start = SteadyClock::now();
  auto service = std::make_unique<seer::HoardService>(&fs, root, ServiceConfig());
  if (const seer::Status s = service->Listen("unix:" + socket); !s.ok()) {
    report->Fail("crash_restart: listen: " + s.message());
    return false;
  }
  seer::Status serve_status;
  std::thread server([&] { serve_status = service->Serve(); });
  seer::StatusOr<seer::net::OwnedFd> fd = ConnectWithRetry(socket);
  if (!fd.ok()) {
    report->Fail("crash_restart: connect: " + fd.status().message());
    service->RequestStop();
    server.join();
    return false;
  }
  seer::wire::FrameDecoder decoder;
  uint32_t id = 1;
  for (const TenantInput& probe : in.probes) {
    const auto sent = SteadyClock::now();
    std::unique_ptr<ScopedSpan> span;
    if (traced) {
      span = std::make_unique<ScopedSpan>(&out->spans, "client.probe");
    }
    if (!seer::net::SendAll(fd->get(), probe.frames[0]).ok() ||
        !Control(fd->get(), &decoder, seer::wire::ControlVerb::kPing, seer::kInvalidTenantId, id++)
             .ok()) {
      ++out->failed;
      continue;
    }
    out->restore_ms.push_back(SecondsSince(sent) * 1e3);
  }
  out->recover_s = SecondsSince(start);
  const uint64_t rss_after = ReadVmRssKb();
  out->fs = fs.totals() - fs_before;
  out->probes = in.probes.size();

  seer::StatusOr<seer::SeerClient> control = seer::SeerClient::Connect("unix:" + socket);
  uint64_t memory = 0;
  if (control.ok()) {
    seer::StatusOr<std::vector<seer::TenantStats>> stats = control->Stats();
    if (stats.ok()) {
      for (const seer::TenantStats& s : *stats) {
        memory += s.memory_bytes;
        out->restores += s.restores;
      }
    }
    if (const seer::Status s = control->Shutdown(); !s.ok()) {
      report->Fail("crash_restart: shutdown: " + s.message());
    }
  } else {
    service->RequestStop();
  }
  server.join();
  if (!serve_status.ok()) {
    report->Fail("crash_restart: serve: " + serve_status.message());
  }
  out->rss_kb_per_tenant =
      static_cast<double>(rss_after > rss_before ? rss_after - rss_before : 0) / kTenants;
  out->memory_kb_per_tenant = memory / 1024.0 / kTenants;

  if (!check_root.empty()) {
    seer::ThreadPool one(1);
    size_t mismatched = 0;
    for (size_t t = 0; t < in.probes.size(); ++t) {
      const seer::TenantId id = in.probes[t].id;
      seer::StatusOr<std::unique_ptr<seer::DurableCorrelator>> offline =
          seer::DurableCorrelator::Open(&real, seer::SnapshotStore::TenantDirectory(check_root, id),
                                        seer::SeerParams(),
                                        ServiceConfig().router.store_options, &one);
      seer::StatusOr<std::vector<seer::TraceEvent>> probe = seer::wire::DecodeEvents(
          std::string_view(in.probes[t].frames[0]).substr(seer::wire::kFrameHeaderSize));
      seer::StatusOr<seer::Correlator*> got = service->router().CorrelatorFor(id);
      if (!offline.ok() || !probe.ok() || !got.ok()) {
        report->Fail("crash_restart: tenant " + std::to_string(id) + " did not reopen");
        return false;
      }
      seer::Observer observer(seer::ObserverConfig{}, /*fs=*/nullptr);
      observer.set_sink(offline->get());
      for (const seer::TraceEvent& e : *probe) {
        observer.OnEvent(e);
      }
      if ((*offline)->correlator().EncodeSnapshot() != (*got)->EncodeSnapshot()) {
        ++mismatched;
      }
    }
    if (mismatched > 0) {
      report->Fail("crash_restart: " + std::to_string(mismatched) +
                   " restored tenants differ from an offline one-thread Open");
    }
  }
  service.reset();
  std::filesystem::remove_all(root);
  return true;
}

// Chain and WAL tail the crash left for one tenant.
void NoteCrashedStore(const std::string& crashed, seer::TenantId tenant, Report* report) {
  seer::RealFs real;
  seer::SnapshotStore store(&real, seer::SnapshotStore::TenantDirectory(crashed, tenant));
  seer::StatusOr<seer::SnapshotStore::StoreInfo> info = store.GetInfo();
  if (!info.ok()) {
    report->Fail("crash_restart: cannot inspect the crashed store");
    return;
  }
  std::string text;
  for (const seer::SnapshotStore::GenerationInfo& g : info->generations) {
    text += "gen " + std::to_string(g.generation) + ":";
    if (g.has_snapshot) {
      text += std::string(g.is_delta ? " delta " : " full ") + std::to_string(g.snapshot_bytes) + "B";
    }
    if (g.has_wal) {
      text += " wal " + std::to_string(g.wal_bytes) + "B/" + std::to_string(g.wal_records) + "rec";
    }
    text += "; ";
  }
  report->Note("crashed_store_tenant_" + std::to_string(tenant), text);
}

}  // namespace

int RunCrashRestart(const Options& options, Report* report) {
  NoteHost(options, report);
  report->Note("why", "time to serve after a crash (ROADMAP item 5): snapshot-chain decode and "
                      "WAL replay do most of the work; ingest does almost nothing");
  Inputs in;
  uint64_t digest = 0;
  bool deterministic = true;
  const double generate_s = MedianSetup(3, [&] {
    in = Generate(options);
    const uint64_t d = FramesDigest(in.history) ^ FramesDigest(in.probes);
    deterministic = deterministic && (digest == 0 || d == digest);
    digest = d;
  });
  if (!deterministic) {
    report->Fail("crash_restart: the same seed generated different inputs");
  }
  const std::string crashed = FreshDir(options, "crash-root");
  const auto build_start = SteadyClock::now();
  if (!BuildCrashedStore(options, in, crashed, report)) {
    return 0;
  }
  const double build_s = SecondsSince(build_start);
  report->Note("input", std::to_string(kTenants) + " tenants (profiles A-I), " +
                            std::to_string(in.events) + " history events in " +
                            std::to_string(kParts) + " parts (3 checkpointed, then a WAL tail), "
                            "probe of " + std::to_string(kProbeEvents) + " events + barrier per "
                            "tenant, in turn over one connection");
  report->Note("setup", "generate " + Fmt(generate_s) + " s (median of 3), crashed-store build " +
                            Fmt(build_s) + " s");
  NoteCrashedStore(crashed, 1, report);

  // The correctness copy: untouched, opened offline after the first restart.
  const std::string check_root = FreshDir(options, "crash-check");
  std::filesystem::remove_all(check_root);
  std::filesystem::copy(crashed, check_root, std::filesystem::copy_options::recursive);

  // Restarts on fresh copies until --seconds have passed; the first one
  // is checked.
  std::vector<RestartOutput> restarts;
  const auto start = SteadyClock::now();
  while (restarts.size() < static_cast<size_t>(kMinRestarts) ||
         SecondsSince(start) < options.seconds) {
    restarts.emplace_back();
    if (!Restart(options, in, crashed, options.trace, restarts.size() == 1 ? check_root : "",
                 &restarts.back(), report)) {
      return 0;
    }
  }
  // Every figure is a median over restarts; restore percentiles are taken
  // per restart (108 samples each) first.
  PassResult result;
  std::vector<double> recover, restore, p50, p90, rss, bytes, memory;
  for (const RestartOutput& o : restarts) {
    recover.push_back(o.recover_s);
    restore.insert(restore.end(), o.restore_ms.begin(), o.restore_ms.end());
    p50.push_back(Quantile(o.restore_ms, 0.50));
    p90.push_back(Quantile(o.restore_ms, 0.90));
    rss.push_back(o.rss_kb_per_tenant);
    bytes.push_back(static_cast<double>(o.fs.BytesWritten()) / static_cast<double>(in.events));
    memory.push_back(o.memory_kb_per_tenant);
    report->attempted += o.probes;
    report->failed += o.failed;
  }
  result.events_per_s = static_cast<double>(in.events) / Median(recover);
  result.wait_p50_ms = Median(p50);
  result.wait_p90_ms = Median(p90);
  result.rss_kb_per_tenant = Median(rss);
  result.bytes_written_per_event = Median(bytes);
  ReportPass(result, generate_s + build_s, report);

  report->Set("recover_s", Median(recover), "s");
  report->Set("restarts", static_cast<double>(restarts.size()), "count");
  ReportLatency("restore_ms", restore, report);
  report->Set("core.correlator.memory_kb_per_tenant", Median(memory), "KB");
  report->Set("server.unaccounted_kb_per_tenant", result.rss_kb_per_tenant - Median(memory), "KB");
  report->Set("server.tenant_router.restores", static_cast<double>(restarts.back().restores),
              "count");
  ReportFsTotals(restarts.back().fs, report);

  if (options.trace) {
    SpanLog replay_spans;
    LayerReplayInput replay;
    replay.tenants = &in.history;
    replay.max_events = 150'000;
    replay.seed = options.seed;
    replay.hoard_budget_bytes = 50ull << 20;
    RunLayerReplay(options, replay, &replay_spans, report);
    WriteSpans(options, {{"prober", &restarts.back().spans}, {"layer-replay", &replay_spans}},
               report);
  }
  std::filesystem::remove_all(check_root);
  return 0;
}

}  // namespace e2e
