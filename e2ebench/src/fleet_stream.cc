// fleet_stream: the serving path.
//
// An in-process HoardService on a unix socket, a few hundred tenants whose
// traces come from machine profiles A-I in rotation. Data is a closed loop:
// three device connections each stream their share of tenants' pre-encoded
// kEvents frames (small per-tenant frames, tenants interleaved) and wait for
// a Ping barrier every kPipelineDepth frames, as `seerctl stream` with
// SeerClientOptions::pipeline_depth does. Control is an open loop: one
// operator connection pings at a fixed rate, and each ping's latency is
// timed from its scheduled send. Checkpoints and hoard refills run on a
// short cadence so several cycles finish inside the run.
//
// The work is fixed by --seconds (events sized to take about that long on a
// 4-CPU host), so a faster program finishes sooner instead of ingesting
// more; memory and bytes per event stay comparable across versions.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "e2ebench/src/workloads.h"
#include "src/core/correlator.h"
#include "src/observer/observer.h"
#include "src/server/client.h"
#include "src/server/net.h"
#include "src/server/service.h"
#include "src/util/fs.h"

namespace e2e {
namespace {

constexpr size_t kTenants = 216;          // 24 per profile, 72 per device connection
constexpr size_t kDevices = 3;
constexpr size_t kEventsPerFrame = 256;   // small per-tenant batches
constexpr size_t kPipelineDepth = 4;      // frames in flight before a barrier
constexpr double kPingsPerSecond = 200.0;
// Nominal ingest rate the input is sized by (about one --seconds of work on
// a 4-CPU host).
constexpr double kNominalEventsPerSecond = 220'000.0;

struct Inputs {
  std::vector<TenantInput> tenants;
  uint64_t events = 0;
  uint64_t frames = 0;
};

Inputs Generate(const Options& options) {
  const size_t per_tenant = static_cast<size_t>(kNominalEventsPerSecond * options.seconds /
                                                static_cast<double>(kTenants));
  Inputs in;
  in.tenants = FleetInputs(options.seed, kTenants, per_tenant, kEventsPerFrame);
  for (const TenantInput& t : in.tenants) {
    in.events += t.events;
    in.frames += t.frames.size();
  }
  return in;
}

seer::HoardServiceConfig ServiceConfig(const Options& options, CountingClock* clock) {
  seer::HoardServiceConfig config;
  config.io_threads = kIoThreads;
  config.router.threads = kPoolThreads;
  // Short cadences, so several cycles finish inside a run. Checkpoints are
  // triggered by WAL size (~12 per tenant in a 20 s run) rather than by the
  // timer: the
  // number of checkpoints, and so the bytes written, then follows the input
  // instead of how long the run took. Refills write nothing and stay on
  // their timer.
  config.router.checkpoint_interval = 1000 * seer::kMicrosPerHour;
  config.router.wal_checkpoint_bytes = 24u << 10;
  config.router.hoard_interval = options.seconds * seer::kMicrosPerSecond / 3;
  config.router.hoard_budget_bytes = 50ull << 20;
  config.router.size_of = FileSizeOf;
  config.clock = [clock] { return clock->Now(); };
  return config;
}

struct DeviceResult {
  std::vector<double> ack_ms;
  std::vector<int64_t> ack_at_ns;    // when each ack arrived
  std::vector<uint64_t> ack_events;  // events each ack confirmed
  int64_t finished_ns = 0;
  uint64_t barriers = 0;
  uint64_t failed = 0;
  SpanLog spans;
};

bool Barrier(int fd, seer::wire::FrameDecoder* decoder, uint32_t id, uint64_t events,
             DeviceResult* out) {
  const auto start = SteadyClock::now();
  ++out->barriers;
  if (!seer::net::SendAll(fd, PingFrame(id)).ok()) {
    ++out->failed;
    return false;
  }
  seer::StatusOr<seer::wire::Frame> reply = ReadFrame(fd, decoder, 60'000);
  if (!reply.ok() || reply->type != seer::wire::FrameType::kResponse || reply->channel != id) {
    ++out->failed;
    return false;
  }
  out->ack_ms.push_back(SecondsSince(start) * 1e3);
  out->ack_at_ns.push_back(NowNs());
  out->ack_events.push_back(events);
  return true;
}

// One device connection: its tenants' frames, round-robin by frame index,
// a barrier every kPipelineDepth frames and one at the end.
void RunDevice(int fd, const std::vector<TenantInput>& tenants, size_t device, bool traced,
               DeviceResult* out) {
  seer::wire::FrameDecoder decoder;
  size_t rounds = 0;
  for (size_t t = device; t < tenants.size(); t += kDevices) {
    rounds = std::max(rounds, tenants[t].frames.size());
  }
  uint32_t next_id = 1;
  size_t in_flight = 0;
  uint64_t unacked_events = 0;
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t t = device; t < tenants.size(); t += kDevices) {
      if (r >= tenants[t].frames.size()) {
        continue;
      }
      seer::Status sent;
      if (traced) {
        ScopedSpan span(&out->spans, "server.client.send_all");
        sent = seer::net::SendAll(fd, tenants[t].frames[r]);
      } else {
        sent = seer::net::SendAll(fd, tenants[t].frames[r]);
      }
      if (!sent.ok()) {
        ++out->barriers;
        ++out->failed;
        return;
      }
      unacked_events += tenants[t].frame_events[r];
      if (++in_flight == kPipelineDepth) {
        in_flight = 0;
        if (!Barrier(fd, &decoder, next_id++, unacked_events, out)) {
          return;
        }
        unacked_events = 0;
      }
    }
  }
  if (in_flight > 0) {
    Barrier(fd, &decoder, next_id++, unacked_events, out);
  }
  out->finished_ns = NowNs();
}

// The run split into kWindows equal slices of the time every device was
// streaming. Each slice gives an ingest rate and ack percentiles, and the
// pass reports their medians, so a transient stall of the host moves one
// slice, not the result.
constexpr int kWindows = 8;
constexpr size_t kMinWindowAcks = 40;

void WindowMedians(const std::vector<std::unique_ptr<DeviceResult>>& devices, int64_t start_ns,
                   PassResult* result) {
  int64_t end_ns = devices.front()->finished_ns;
  for (const auto& d : devices) {
    end_ns = std::min(end_ns, d->finished_ns);
  }
  const double width_ns = static_cast<double>(end_ns - start_ns) / kWindows;
  std::vector<double> events(kWindows, 0.0);
  std::vector<std::vector<double>> acks(kWindows);
  for (const auto& d : devices) {
    for (size_t i = 0; i < d->ack_at_ns.size(); ++i) {
      const int w = static_cast<int>(static_cast<double>(d->ack_at_ns[i] - start_ns) / width_ns);
      if (w >= 0 && w < kWindows) {
        events[w] += static_cast<double>(d->ack_events[i]);
        acks[w].push_back(d->ack_ms[i]);
      }
    }
  }
  std::vector<double> rates, p50, p90;
  for (int w = 0; w < kWindows; ++w) {
    if (acks[w].size() < kMinWindowAcks) {
      continue;
    }
    rates.push_back(events[w] / (width_ns / 1e9));
    p50.push_back(Quantile(acks[w], 0.50));
    p90.push_back(Quantile(acks[w], 0.90));
  }
  result->events_per_s = Median(rates);
  result->wait_p50_ms = Median(p50);
  result->wait_p90_ms = Median(p90);
}

// The operator: pings on a fixed schedule from one thread, reads replies on
// another; latency runs from each ping's due time, so a stalled server
// charges every ping queued behind the stall.
class Pinger {
 public:
  explicit Pinger(int max_seconds) : due_ns_(static_cast<size_t>(max_seconds * kPingsPerSecond)) {}

  void Run(int fd, std::atomic<bool>* stop) {
    std::thread receiver([this, fd] { Receive(fd); });
    const auto start = SteadyClock::now();
    const auto period = std::chrono::nanoseconds(static_cast<int64_t>(1e9 / kPingsPerSecond));
    for (size_t k = 0; k < due_ns_.size() && !stop->load(); ++k) {
      const auto due = start + period * static_cast<int64_t>(k);
      std::this_thread::sleep_until(due);
      max_late_ms_ = std::max(max_late_ms_,
                              std::chrono::duration<double, std::milli>(SteadyClock::now() - due)
                                  .count());
      due_ns_[k].store(due.time_since_epoch().count(), std::memory_order_release);
      // Counted before the send: the reply can arrive before SendAll
      // returns. A ping whose send fails stays counted, as a failure.
      sent_.store(k + 1, std::memory_order_release);
      if (!seer::net::SendAll(fd, PingFrame(static_cast<uint32_t>(k + 1))).ok()) {
        break;
      }
    }
    done_sending_.store(true, std::memory_order_release);
    receiver.join();
  }

  std::vector<double> latency_ms;
  uint64_t sent() const { return sent_.load(); }
  double max_late_ms() const { return max_late_ms_; }

 private:
  void Receive(int fd) {
    seer::wire::FrameDecoder decoder;
    for (;;) {
      if (done_sending_.load(std::memory_order_acquire) && latency_ms.size() >= sent_.load()) {
        return;
      }
      seer::StatusOr<seer::wire::Frame> reply = ReadFrame(fd, &decoder, 200);
      if (!reply.ok()) {
        if (done_sending_.load(std::memory_order_acquire) && ++idle_polls_ > 50) {
          return;  // 10 s without a reply after the last send
        }
        continue;
      }
      const uint32_t id = reply->channel;
      if (id == 0 || id > sent_.load(std::memory_order_acquire)) {
        continue;
      }
      const int64_t due = due_ns_[id - 1].load(std::memory_order_acquire);
      latency_ms.push_back(static_cast<double>(
                               SteadyClock::now().time_since_epoch().count() - due) /
                           1e6);
    }
  }

  std::vector<std::atomic<int64_t>> due_ns_;
  std::atomic<uint64_t> sent_{0};
  std::atomic<bool> done_sending_{false};
  double max_late_ms_ = 0.0;
  int idle_polls_ = 0;
};

struct PassOutput {
  PassResult result;
  std::vector<std::unique_ptr<DeviceResult>> devices;
  std::vector<double> ping_ms;
  uint64_t pings_sent = 0;
  double ping_max_late_ms = 0.0;
  std::vector<seer::TenantStats> stats;
  std::vector<uint64_t> seal_stalls;
  CountingFs::Totals fs;
  uint64_t loop_iterations = 0;
  uint64_t frames_received = 0;
  uint64_t protocol_errors = 0;
  uint64_t events_ingested = 0;
  double elapsed_s = 0.0;
};

// One pass: fresh store, service, devices, pinger. Leaves the stopped
// service in `*service` for the correctness check.
bool RunPass(const Options& options, const Inputs& in, bool traced, CountingFs* fs,
             CountingClock* clock, std::unique_ptr<seer::HoardService>* service, PassOutput* out,
             Report* report) {
  const std::string root = FreshDir(options, "fleet");
  fs->set_timing(traced);
  SettleStoreFs(options);
  *service = std::make_unique<seer::HoardService>(fs, root, ServiceConfig(options, clock));
  const std::string socket = "fleet.sock";
  if (const seer::Status s = (*service)->Listen("unix:" + socket); !s.ok()) {
    report->Fail("listen: " + s.message());
    return false;
  }
  seer::Status serve_status;
  std::thread server([&] { serve_status = (*service)->Serve(); });
  const seer::StatusOr<seer::net::Endpoint> endpoint = seer::net::ParseEndpoint("unix:" + socket);

  const uint64_t rss_before = TrimmedRssKb();
  const CountingFs::Totals fs_before = fs->totals();
  const uint64_t clock_before = clock->calls();
  // Connect in a fixed order: the service assigns shards round-robin at
  // accept, so devices land on worker shards 1-3 and the operator on shard
  // 0 (the control shard) in every run.
  std::vector<seer::net::OwnedFd> device_fds;
  for (size_t d = 0; d < kDevices; ++d) {
    seer::StatusOr<seer::net::OwnedFd> fd = seer::net::Connect(*endpoint);
    if (!fd.ok()) {
      report->Fail("device connect: " + fd.status().message());
      (*service)->RequestStop();
      server.join();
      return false;
    }
    device_fds.push_back(std::move(*fd));
  }
  std::atomic<bool> stop{false};
  Pinger pinger(std::max(60, options.seconds * 12));
  seer::StatusOr<seer::net::OwnedFd> ping_fd = seer::net::Connect(*endpoint);
  std::thread operator_thread;
  if (ping_fd.ok()) {
    operator_thread = std::thread([&] { pinger.Run(ping_fd->get(), &stop); });
  } else {
    report->Fail("operator connect: " + ping_fd.status().message());
  }

  const auto start = SteadyClock::now();
  const int64_t start_ns = NowNs();
  std::vector<std::thread> devices;
  for (size_t d = 0; d < kDevices; ++d) {
    out->devices.push_back(std::make_unique<DeviceResult>());
    devices.emplace_back(
        [&, d] { RunDevice(device_fds[d].get(), in.tenants, d, traced, out->devices[d].get()); });
  }
  for (std::thread& t : devices) {
    t.join();
  }
  out->elapsed_s = SecondsSince(start);
  const uint64_t rss_after = ReadVmRssKb();
  stop.store(true);
  if (operator_thread.joinable()) {
    operator_thread.join();
  }
  out->loop_iterations = clock->calls() - clock_before;

  seer::StatusOr<seer::SeerClient> control = seer::SeerClient::Connect("unix:" + socket);
  if (control.ok()) {
    seer::StatusOr<std::vector<seer::TenantStats>> stats = control->Stats();
    if (stats.ok()) {
      out->stats = std::move(*stats);
    } else {
      report->Fail("tenant stats: " + stats.status().message());
    }
    if (const seer::Status s = control->Shutdown(); !s.ok()) {
      report->Fail("shutdown: " + s.message());
    }
  } else {
    report->Fail("control connect: " + control.status().message());
    (*service)->RequestStop();
  }
  server.join();
  if (!serve_status.ok()) {
    report->Fail("serve: " + serve_status.message());
  }
  out->fs = fs->totals() - fs_before;
  out->ping_ms = std::move(pinger.latency_ms);
  out->pings_sent = pinger.sent();
  out->ping_max_late_ms = pinger.max_late_ms();
  out->seal_stalls = (*service)->router().seal_stall_micros();
  out->frames_received = (*service)->frames_received();
  out->protocol_errors = (*service)->protocol_errors();
  out->events_ingested = (*service)->events_ingested();

  PassResult& r = out->result;
  WindowMedians(out->devices, start_ns, &r);
  r.rss_kb_per_tenant =
      static_cast<double>(rss_after > rss_before ? rss_after - rss_before : 0) / kTenants;
  r.bytes_written_per_event =
      static_cast<double>(out->fs.BytesWritten()) / static_cast<double>(in.events);
  return true;
}

// multitenant_test's invariant: each tenant's store equals a standalone
// Observer -> Correlator replay of the frames it was sent, decoded by the
// owning (not the zero-copy) decoder.
void CheckAgainstStandalone(const Inputs& in, seer::HoardService* service, Report* report) {
  std::vector<size_t> want_hash(in.tenants.size());
  std::vector<size_t> want_size(in.tenants.size());
  std::atomic<size_t> next{0};
  std::atomic<bool> decode_failed{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < kPoolThreads; ++w) {
    workers.emplace_back([&] {
      for (size_t t = next++; t < in.tenants.size(); t = next++) {
        seer::Observer observer(seer::ObserverConfig{}, /*fs=*/nullptr);
        seer::Correlator standalone{seer::SeerParams()};
        observer.set_sink(&standalone);
        for (const std::string& frame : in.tenants[t].frames) {
          seer::StatusOr<std::vector<seer::TraceEvent>> events = seer::wire::DecodeEvents(
              std::string_view(frame).substr(seer::wire::kFrameHeaderSize));
          if (!events.ok()) {
            decode_failed.store(true);
            break;
          }
          for (const seer::TraceEvent& e : *events) {
            observer.OnEvent(e);
          }
        }
        const std::string snap = standalone.EncodeSnapshot();
        want_hash[t] = std::hash<std::string>{}(snap);
        want_size[t] = snap.size();
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  if (decode_failed.load()) {
    report->Fail("fleet_stream: a pre-encoded frame did not decode");
  }
  size_t mismatched = 0;
  for (size_t t = 0; t < in.tenants.size(); ++t) {
    seer::StatusOr<seer::Correlator*> got = service->router().CorrelatorFor(in.tenants[t].id);
    if (!got.ok()) {
      report->Fail("fleet_stream: tenant " + std::to_string(in.tenants[t].id) +
                   " did not restore: " + got.status().message());
      return;
    }
    const std::string snap = (*got)->EncodeSnapshot();
    if (snap.size() != want_size[t] || std::hash<std::string>{}(snap) != want_hash[t]) {
      ++mismatched;
    }
  }
  if (mismatched > 0) {
    report->Fail("fleet_stream: " + std::to_string(mismatched) +
                 " tenant snapshots differ from a standalone replay");
  }
}

void ReportProbes(const PassOutput& out, size_t tenants, Report* report) {
  ReportLatency("ping_ms", out.ping_ms, report);
  std::vector<double> ack_ms;
  double send_ms = 0.0;
  for (const auto& d : out.devices) {
    ack_ms.insert(ack_ms.end(), d->ack_ms.begin(), d->ack_ms.end());
    send_ms += d->spans.TotalMs("server.client.send_all");
  }
  ReportLatency("ack_ms", ack_ms, report);
  report->Set("ping_max_late_ms", out.ping_max_late_ms, "ms");
  report->Set("ingest_events_per_s", static_cast<double>(out.events_ingested) / out.elapsed_s,
              "events/s");
  report->Set("server.client.send_blocked_ms", send_ms, "ms");
  report->Set("server.service.loop_iterations", static_cast<double>(out.loop_iterations), "count");
  report->Set("server.service.frames_received", static_cast<double>(out.frames_received), "count");
  report->Set("server.service.protocol_errors", static_cast<double>(out.protocol_errors), "count");
  std::vector<double> stalls(out.seal_stalls.begin(), out.seal_stalls.end());
  report->Set("server.tenant_router.seal_stall_us.p50", Quantile(stalls, 0.50), "us");
  report->Set("server.tenant_router.seal_stall_us.p99", Quantile(stalls, 0.99), "us");
  double checkpoints = 0, refills = 0, refill_max_ms = 0, memory = 0, restores = 0;
  for (const seer::TenantStats& s : out.stats) {
    checkpoints += static_cast<double>(s.checkpoints);
    refills += static_cast<double>(s.refills);
    restores += static_cast<double>(s.restores);
    memory += static_cast<double>(s.memory_bytes);
    refill_max_ms = std::max(refill_max_ms, s.last_refill_us / 1e3);
  }
  report->Set("server.tenant_router.checkpoints", checkpoints, "count");
  report->Set("server.tenant_router.refills", refills, "count");
  report->Set("server.tenant_router.refill_ms.max", refill_max_ms, "ms");
  report->Set("server.tenant_router.restores", restores, "count");
  const double memory_kb = memory / 1024.0 / static_cast<double>(tenants);
  report->Set("core.correlator.memory_kb_per_tenant", memory_kb, "KB");
  report->Set("server.unaccounted_kb_per_tenant", out.result.rss_kb_per_tenant - memory_kb, "KB");
  ReportFsTotals(out.fs, report);
}

}  // namespace

int RunFleetStream(const Options& options, Report* report) {
  NoteHost(options, report);
  report->Note("why", "the serving path: wire, shard dispatch, plane lock, observer, ingest "
                      "fold and WAL append do most of the work; small per-tenant batches; "
                      "operator pings at full data rate (ROADMAP items 2 and 6)");
  Inputs in;
  uint64_t digest = 0;
  bool deterministic = true;
  const double setup_s = MedianSetup(3, [&] {
    in = Generate(options);
    const uint64_t d = FramesDigest(in.tenants);
    deterministic = deterministic && (digest == 0 || d == digest);
    digest = d;
  });
  if (!deterministic) {
    report->Fail("fleet_stream: the same seed generated different inputs");
  }
  report->Note("input", std::to_string(in.tenants.size()) + " tenants (profiles A-I), " +
                            std::to_string(in.events) + " events, " + std::to_string(in.frames) +
                            " frames of <= " + std::to_string(kEventsPerFrame) + " events; " +
                            std::to_string(kDevices) + " device connections, barrier every " +
                            std::to_string(kPipelineDepth) + " frames; 1 operator at " +
                            Fmt(kPingsPerSecond) + " pings/s");

  seer::RealFs real;
  CountingFs fs(&real);
  CountingClock clock;
  std::unique_ptr<seer::HoardService> service;
  PassOutput pass;
  if (!RunPass(options, in, options.trace, &fs, &clock, &service, &pass, report)) {
    return 0;
  }
  ReportPass(pass.result, setup_s, report);
  ReportProbes(pass, in.tenants.size(), report);

  uint64_t barriers = 0, barrier_failures = 0;
  for (const auto& d : pass.devices) {
    barriers += d->barriers;
    barrier_failures += d->failed;
  }
  report->attempted = barriers + pass.pings_sent;
  report->failed = barrier_failures + (pass.pings_sent - pass.ping_ms.size());
  uint64_t files = 0;
  for (const seer::TenantStats& s : pass.stats) {
    files += s.files;
  }
  report->Note("files_tracked", std::to_string(files) + " across tenants");
  if (pass.events_ingested != in.events) {
    report->Fail("fleet_stream: ingested " + std::to_string(pass.events_ingested) + " of " +
                 std::to_string(in.events) + " events");
  }
  if (pass.protocol_errors != 0) {
    report->Fail("fleet_stream: protocol errors");
  }
  CheckAgainstStandalone(in, service.get(), report);

  if (options.trace) {
    SpanLog replay_spans;
    LayerReplayInput replay;
    replay.tenants = &in.tenants;
    replay.max_events = 150'000;
    replay.seed = options.seed;
    replay.hoard_budget_bytes = 50ull << 20;
    RunLayerReplay(options, replay, &replay_spans, report);
    std::vector<std::pair<std::string, const SpanLog*>> logs;
    for (size_t d = 0; d < pass.devices.size(); ++d) {
      logs.emplace_back("device-" + std::to_string(d), &pass.devices[d]->spans);
    }
    logs.emplace_back("layer-replay", &replay_spans);
    WriteSpans(options, logs, report);
  }
  return 0;
}

}  // namespace e2e
