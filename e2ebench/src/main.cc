// e2ebench: the repository benchmark's binary.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Prints the report (notes, then every metric as "metric NAME VALUE UNIT")
// and, as its last line, one JSON object with every metric it measured.
// e2ebench/run.py builds this binary and narrows that object to the
// metrics BENCHMARK.json names for the mode. Exits 1 when a correctness
// check fails, 2 on bad arguments.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "e2ebench/src/report.h"
#include "e2ebench/src/workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload fleet_stream|disconnect_refill|crash_restart "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
}

void PrintReport(const e2e::Options& options, const e2e::Report& report) {
  std::printf("workload %s seed %" PRIu64 " seconds %d trace %d\n", options.workload.c_str(),
              options.seed, options.seconds, options.trace ? 1 : 0);
  for (const auto& [key, text] : report.notes()) {
    std::printf("note %s: %s\n", key.c_str(), text.c_str());
  }
  for (const auto& [name, metric] : report.metrics()) {
    std::printf("metric %s %.9g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const std::string& failure : report.failures()) {
    std::printf("failure %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              report.correct() ? "true" : "false", report.attempted, report.failed);
  bool first = true;
  for (const auto& [name, metric] : report.metrics()) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                metric.value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (options.workload.empty() || options.work_dir.empty() || options.seconds < 1) {
    Usage();
    return 2;
  }
  // Unix socket names are relative to the work dir: a checkout path can be
  // longer than sockaddr_un allows.
  if (::chdir(options.work_dir.c_str()) != 0) {
    std::fprintf(stderr, "e2ebench: cannot enter %s\n", options.work_dir.c_str());
    return 2;
  }

  e2e::Report report;
  int rc = 0;
  if (options.workload == "fleet_stream") {
    rc = e2e::RunFleetStream(options, &report);
  } else if (options.workload == "disconnect_refill") {
    rc = e2e::RunDisconnectRefill(options, &report);
  } else if (options.workload == "crash_restart") {
    rc = e2e::RunCrashRestart(options, &report);
  } else {
    Usage();
    return 2;
  }
  if (rc != 0) {
    return rc;
  }
  PrintReport(options, report);
  return report.correct() ? 0 : 1;
}
