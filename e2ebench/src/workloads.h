// The three workloads and what they share.
//
// Every workload reports the same end-to-end metrics (BENCHMARK.json
// requires each on every workload), each measured on the workload's own
// user-facing operation:
//
//   setup_s                  input generation + encoding (+ the crashed
//                            store build), median of repeated set-ups
//   events_per_s             fleet_stream: events ingested over the wire;
//                            disconnect_refill: trace events replayed,
//                            refills excluded; crash_restart: events held
//                            by the crashed stores / recovery time
//   wait_ms.p50, .p90        fleet_stream: delivery-barrier ack;
//                            disconnect_refill: "disconnecting" -> hoard
//                            chosen; crash_restart: probe send -> ack
//   rss_kb_per_tenant        VmRSS growth over the timed part / tenants
//   bytes_written_per_event  store bytes written / events of the timed part
//
// The workload-specific figures the paper and ROADMAP name (ack and ping
// p99, replay µs per event, recover_s, ...) are printed in the report
// lines above the result.
#ifndef E2EBENCH_SRC_WORKLOADS_H_
#define E2EBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "e2ebench/src/inputs.h"
#include "e2ebench/src/probes.h"
#include "e2ebench/src/report.h"
#include "src/server/wire.h"
#include "src/util/status.h"

namespace e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;  // absolute; stores, sockets and span files go here
};

// The end-to-end figures of one pass over a workload.
struct PassResult {
  double events_per_s = 0.0;
  double wait_p50_ms = 0.0;
  double wait_p90_ms = 0.0;
  double rss_kb_per_tenant = 0.0;
  double bytes_written_per_event = 0.0;
};

// Fixed thread counts for the server: sized to a 4-CPU host and recorded in
// the output, never read from SEER_THREADS.
constexpr int kIoThreads = 4;
constexpr int kPoolThreads = 4;

int RunFleetStream(const Options& options, Report* report);
int RunDisconnectRefill(const Options& options, Report* report);
int RunCrashRestart(const Options& options, Report* report);

// Puts a pass's figures under the end-to-end names.
void ReportPass(const PassResult& pass, double setup_s, Report* report);

// Hands memory freed by set-up back to the kernel, so VmRSS growth over the
// timed part counts what the timed part kept, not reuse of freed pages.
uint64_t TrimmedRssKb();

// Sets up `repeats` times (the same seed each time) and returns the median
// set-up time; `once` must leave its result in place of the previous one.
template <typename F>
double MedianSetup(int repeats, F&& once) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto start = SteadyClock::now();
    once();
    times.push_back(SecondsSince(start));
  }
  return Median(times);
}

// FNV-1a over a tenant list's frames: the set-up repeats must agree.
uint64_t FramesDigest(const std::vector<TenantInput>& tenants);

// Records the host and store facts every workload prints.
void NoteHost(const Options& options, Report* report);

// A fresh, empty directory under the work dir.
std::string FreshDir(const Options& options, const std::string& name);

// Writes back the work dir's filesystem (syncfs) before a timed part, so
// fsyncs inside it do not also pay for earlier, unrelated dirty pages.
void SettleStoreFs(const Options& options);

// Single-threaded replay of the generated inputs through each layer's
// public functions, timed per call with spans (see layer_replay.cc).
struct LayerReplayInput {
  const std::vector<TenantInput>* tenants = nullptr;
  size_t max_events = 0;  // stop adding tenants past this many events
  // Filesystem the investigators read; null builds the first replayed
  // tenant's environment from the seed.
  const seer::SimFilesystem* investigate_fs = nullptr;
  uint64_t seed = 1;
  uint64_t hoard_budget_bytes = 0;
  // Event indices (into the first tenant's trace) where a refill runs;
  // empty spaces four refills evenly through each tenant.
  std::vector<size_t> refill_at;
};
void RunLayerReplay(const Options& options, const LayerReplayInput& input, SpanLog* spans,
                    Report* report);

// Probe-run facts read from a CountingFs window, as util.fs.* metrics.
void ReportFsTotals(const CountingFs::Totals& totals, Report* report);

// --- raw wire client (the benchmark's own, so sends can be spanned) --------
// A kRequest kPing frame with request id `id`.
std::string PingFrame(uint32_t id);
// Blocks until the next complete frame arrives on `fd`, or `timeout_ms`
// passes without any byte (kIoError), or the peer closes.
seer::StatusOr<seer::wire::Frame> ReadFrame(int fd, seer::wire::FrameDecoder* decoder,
                                            int timeout_ms);

// NAME.p50, .p90, .p99 and .samples of a latency series, as report metrics.
void ReportLatency(const std::string& name, const std::vector<double>& ms, Report* report);

// Writes every span log as JSON lines to WORK_DIR/spans-WORKLOAD-SEED.jsonl.
void WriteSpans(const Options& options,
                const std::vector<std::pair<std::string, const SpanLog*>>& logs, Report* report);

}  // namespace e2e

#endif  // E2EBENCH_SRC_WORKLOADS_H_
