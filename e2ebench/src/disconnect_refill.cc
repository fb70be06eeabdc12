// disconnect_refill: the paper's deployment — one laptop, no server.
//
// The single-laptop stack in process: Observer -> DurableCorrelator ->
// HoardDaemon, investigators on and the daemon owning checkpoints. A
// machine-F trace is replayed by its own daemon (closed loop, one caller),
// and at each of F's Table 3 disconnections the laptop asks for its hoard
// (ForceRefill). F's environment is scaled so the correlator tracks ~10^4
// files, the paper's ~20k-file user: stock F tracks a few hundred files and
// refill cost would not show.
#include <memory>
#include <set>

#include "e2ebench/src/workloads.h"
#include "src/core/durable_correlator.h"
#include "src/core/hoard.h"
#include "src/core/hoard_daemon.h"
#include "src/core/investigator.h"
#include "src/observer/observer.h"
#include "src/util/thread_pool.h"

namespace e2e {
namespace {

// Trace events per --second: with the scaled environment's history and
// F's 184 refills this is about one --seconds of work on a 4-CPU host.
constexpr size_t kEventsPerSecond = 10'000;
constexpr size_t kEventsPerFrame = 256;
constexpr size_t kReplayGroups = 8;

struct Inputs {
  LaptopInputs laptop;
  std::vector<TenantInput> as_tenant;  // the same trace as frames (layer replay)
};

struct PassOutput {
  PassResult result;
  double replay_s = 0.0;
  std::vector<double> ready_ms;
  uint64_t refills = 0;
  uint64_t refill_failures = 0;
  uint64_t files_tracked = 0;
  uint64_t clusters = 0;
  uint64_t memory_bytes = 0;
  uint64_t scratch_mismatches = 0;
  CountingFs::Totals fs;
  SpanLog spans;
};

bool RunPass(const Options& options, const Inputs& in, bool traced, PassOutput* out,
             Report* report) {
  const LaptopInputs& laptop = in.laptop;
  const std::string dir = FreshDir(options, "laptop");
  seer::RealFs real;
  CountingFs fs(&real);
  fs.set_timing(traced);
  SettleStoreFs(options);
  seer::ThreadPool pool(kPoolThreads);
  const seer::SeerParams params;

  seer::StatusOr<std::unique_ptr<seer::DurableCorrelator>> opened =
      seer::DurableCorrelator::Open(&fs, dir, params, {}, &pool);
  if (!opened.ok()) {
    report->Fail("disconnect_refill: open: " + opened.status().message());
    return false;
  }
  std::unique_ptr<seer::DurableCorrelator> durable = std::move(*opened);
  seer::Correlator& correlator = durable->correlator();
  correlator.AddInvestigator(std::make_unique<seer::IncludeScanner>());
  correlator.AddInvestigator(std::make_unique<seer::MakefileInvestigator>());
  correlator.AddInvestigator(std::make_unique<seer::HotLinkInvestigator>());

  seer::Observer observer(seer::ObserverConfig{}, laptop.fs.get());
  seer::MissLog miss_log;
  observer.set_sink(durable.get());
  observer.set_miss_listener(&miss_log);
  seer::HoardManager manager(laptop.hoard_budget_bytes);
  manager.set_shared_pool(&pool);
  seer::HoardDaemonConfig config;
  config.interval = 1000 * seer::kMicrosPerHour;  // refills come from disconnections only
  config.investigate_fs = laptop.fs.get();
  config.durable = durable.get();
  seer::HoardDaemon daemon(&correlator, &observer, &manager, &miss_log, nullptr, FileSizeOf,
                           config);
  // The oracle fill: scratch (no aggregate cache), one thread.
  seer::HoardManager scratch(laptop.hoard_budget_bytes);
  scratch.set_incremental_fill(false);
  scratch.set_threads(1);

  const uint64_t rss_before = TrimmedRssKb();
  const CountingFs::Totals fs_before = fs.totals();
  int64_t replay_ns = 0;
  std::vector<std::pair<uint64_t, int64_t>> segments;  // (events, ns) between refills
  size_t next = 0;
  for (size_t d = 0; d <= laptop.disconnect_at.size(); ++d) {
    const size_t end =
        d < laptop.disconnect_at.size() ? laptop.disconnect_at[d] : laptop.events.size();
    if (next < end) {
      std::unique_ptr<ScopedSpan> span;
      if (traced) {
        span = std::make_unique<ScopedSpan>(&out->spans, "laptop.replay");
      }
      const int64_t start = NowNs();
      const size_t first = next;
      for (; next < end; ++next) {
        observer.OnEvent(laptop.events[next]);
      }
      segments.emplace_back(next - first, NowNs() - start);
      replay_ns += segments.back().second;
    }
    if (d == laptop.disconnect_at.size()) {
      break;
    }
    // "Disconnecting": the laptop wants its hoard now.
    const seer::Time now = next > 0 ? laptop.events[next - 1].time : 0;
    seer::HoardSelection selection;
    {
      std::unique_ptr<ScopedSpan> span;
      if (traced) {
        span = std::make_unique<ScopedSpan>(&out->spans, "laptop.force_refill");
      }
      const auto start = SteadyClock::now();
      (void)durable->correlator();  // applies events still in the ingest batcher
      selection = daemon.ForceRefill(now);
      out->ready_ms.push_back(SecondsSince(start) * 1e3);
    }
    ++out->refills;
    // Hours pass between real disconnections, so the refill's background
    // checkpoint is long done when the user next works; the compressed
    // replay lets it finish (untimed) before the trace resumes, instead of
    // overlapping the next replay segment and refill.
    if (!daemon.last_checkpoint_status().ok() || !durable->FinishCheckpoint().ok()) {
      ++out->refill_failures;
    }
    // Untimed: the same point filled from scratch must choose the same hoard.
    for (const seer::PathId pin : manager.pinned()) {
      scratch.Pin(pin);
    }
    const seer::ClusterSet clusters = correlator.BuildClusters();
    out->clusters = clusters.clusters.size();
    const seer::HoardSelection want =
        scratch.ChooseHoard(correlator, clusters, observer.always_hoard(), FileSizeOf);
    if (want.files != selection.files) {
      ++out->scratch_mismatches;
    }
  }
  const uint64_t rss_after = ReadVmRssKb();
  out->files_tracked = durable->correlator().files().size();
  out->memory_bytes = durable->correlator().MemoryBytes();
  if (!durable->FinishCheckpoint().ok()) {
    ++out->refill_failures;
  }
  out->fs = fs.totals() - fs_before;

  out->replay_s = static_cast<double>(replay_ns) / 1e9;
  PassResult& r = out->result;
  // Replay rate: the median over kReplayGroups runs of consecutive
  // segments holding equal shares of the trace, so a transient stall of the
  // host moves one group, not the result.
  std::vector<double> rates;
  uint64_t group_events = 0;
  int64_t group_ns = 0;
  for (const auto& [events, ns] : segments) {
    group_events += events;
    group_ns += ns;
    if (group_events * kReplayGroups >= laptop.events.size()) {
      rates.push_back(static_cast<double>(group_events) * 1e9 / static_cast<double>(group_ns));
      group_events = 0;
      group_ns = 0;
    }
  }
  r.events_per_s = Median(rates);
  r.wait_p50_ms = Quantile(out->ready_ms, 0.50);
  r.wait_p90_ms = Quantile(out->ready_ms, 0.90);
  r.rss_kb_per_tenant = static_cast<double>(rss_after > rss_before ? rss_after - rss_before : 0);
  r.bytes_written_per_event =
      static_cast<double>(out->fs.BytesWritten()) / static_cast<double>(laptop.events.size());
  return true;
}

}  // namespace

int RunDisconnectRefill(const Options& options, Report* report) {
  NoteHost(options, report);
  report->Note("why", "the paper's deployment: clustering, investigators, hoard fill and the "
                      "post-refill checkpoint do most of the work; no server");
  Inputs in;
  uint64_t digest = 0;
  bool deterministic = true;
  const double setup_s = MedianSetup(3, [&] {
    in.laptop = MakeLaptop(options.seed, kEventsPerSecond * static_cast<size_t>(options.seconds));
    in.as_tenant.clear();
    in.as_tenant.push_back(EncodeTenant(1, 'F', in.laptop.events, kEventsPerFrame));
    const uint64_t d = FramesDigest(in.as_tenant);
    deterministic = deterministic && (digest == 0 || d == digest);
    digest = d;
  });
  if (!deterministic) {
    report->Fail("disconnect_refill: the same seed generated different inputs");
  }

  PassOutput pass;
  if (!RunPass(options, in, options.trace, &pass, report)) {
    return 0;
  }
  report->Note("input", "machine F scaled: " + std::to_string(in.laptop.events.size()) +
                            " events, " + std::to_string(in.laptop.disconnect_at.size()) +
                            " disconnections (Table 3), hoard " +
                            std::to_string(in.laptop.hoard_budget_bytes >> 20) + " MB (Table 4), " +
                            std::to_string(pass.files_tracked) + " files tracked, " +
                            std::to_string(pass.clusters) + " clusters");
  ReportPass(pass.result, setup_s, report);
  ReportLatency("hoard_ready_ms", pass.ready_ms, report);
  report->Set("replay_us_per_event", pass.replay_s * 1e6 / in.laptop.events.size(), "us");
  report->Set("files_tracked", static_cast<double>(pass.files_tracked), "count");
  report->Set("core.correlator.memory_kb_per_tenant", pass.memory_bytes / 1024.0, "KB");
  report->Set("server.unaccounted_kb_per_tenant",
              pass.result.rss_kb_per_tenant - pass.memory_bytes / 1024.0, "KB");
  ReportFsTotals(pass.fs, report);
  report->attempted = pass.refills;
  report->failed = pass.refill_failures;
  if (pass.scratch_mismatches > 0) {
    report->Fail("disconnect_refill: " + std::to_string(pass.scratch_mismatches) +
                 " refills differ from a scratch fill");
  }

  if (options.trace) {
    SpanLog replay_spans;
    LayerReplayInput replay;
    replay.tenants = &in.as_tenant;
    replay.max_events = in.laptop.events.size();
    replay.investigate_fs = in.laptop.fs.get();
    replay.seed = options.seed;
    replay.hoard_budget_bytes = in.laptop.hoard_budget_bytes;
    replay.refill_at = in.laptop.disconnect_at;
    RunLayerReplay(options, replay, &replay_spans, report);
    WriteSpans(options, {{"laptop", &pass.spans}, {"layer-replay", &replay_spans}}, report);
  }
  return 0;
}

}  // namespace e2e
