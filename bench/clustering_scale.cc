// Section 3.3.2 — Clustering time complexity, plus the parallel engine.
//
// SEER's variation of Jarvis-Patrick avoids the O(N^2) all-pairs neighbor
// comparison by reusing the relation table's per-file lists, giving O(N)
// time. This bench measures wall-clock clustering time across a range of
// file counts in two configurations:
//
//   serial     — one thread (the pre-parallel baseline);
//   parallel   — the pool's thread count (SEER_THREADS or all cores).
//
// Both produce bit-identical ClusterSets (checked here); per-file cost
// should stay roughly flat as N grows (the O(N) claim).
//
// In addition to the interactive table, the binary always writes
// BENCH_clustering.json — rows of {files, clusters, serial_ms, parallel_ms,
// speedup} — so future changes have a machine-readable perf trajectory to
// compare against.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/correlator.h"
#include "src/util/thread_pool.h"

namespace seer {
namespace {

constexpr int kProjectSize = 16;

std::unique_ptr<Correlator> LoadedCorrelator(int n_files, int project_size) {
  auto correlator = std::make_unique<Correlator>();
  Time t = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (int f = 0; f < n_files; ++f) {
      FileReference ref;
      ref.pid = 1 + f / project_size;  // one process stream per project
      ref.kind = RefKind::kPoint;
      ref.path = GlobalPaths().Intern("/p" + std::to_string(f / project_size) + "/f" +
                                      std::to_string(f % project_size));
      ref.time = (t += 1000);
      correlator->OnReference(ref);
    }
  }
  return correlator;
}

double TimedBuildMs(Correlator* correlator, ClusterSet* out) {
  const auto start = std::chrono::steady_clock::now();
  ClusterSet clusters = correlator->BuildClusters();
  const auto stop = std::chrono::steady_clock::now();
  if (out != nullptr) {
    *out = std::move(clusters);
  }
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

bool SameClusters(const ClusterSet& a, const ClusterSet& b) {
  if (a.clusters.size() != b.clusters.size()) {
    return false;
  }
  for (size_t i = 0; i < a.clusters.size(); ++i) {
    if (a.clusters[i].members != b.clusters[i].members) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace seer

int main() {
  using namespace seer;
  const int threads = bench::EffectiveSeerThreads();
  // The serial column pins 1 thread, so the sweep's width is the parallel
  // column's thread count: speedup numbers are only meaningful when the
  // host really has that many cores AND more than one thread is in play
  // (at threads=1 the "parallel" column is just the serial build again).
  const bool scaling_valid =
      bench::WarnIfScalingInvalid("clustering_scale", threads) && threads >= 2;
  bench::PrintHeader(
      "Clustering scalability (Section 3.3.2): per-file cost should stay\n"
      "roughly flat with N (the O(N) shared-neighbor variation); parallel\n"
      "scoring cuts the constant");
  std::printf("threads for the parallel column: %d (override with SEER_THREADS)\n\n", threads);

  std::printf("%8s %9s %11s %12s %8s %9s\n", "files", "clusters", "serial(ms)",
              "parallel(ms)", "speedup", "us/file");
  bench::PrintRule();

  const int reps = bench::FullScale() ? 3 : 2;
  const int max_n = bench::FullScale() ? 65'536 : 16'384;

  struct Row {
    int files = 0;
    size_t clusters = 0;
    double serial_ms = 0.0;
    double parallel_ms = 0.0;
  };
  std::vector<Row> rows;
  bool identical = true;

  for (int n = 1024; n <= max_n; n *= 2) {
    auto correlator = LoadedCorrelator(n, kProjectSize);

    Row row;
    row.files = n;
    ClusterSet serial_set;
    ClusterSet parallel_set;
    for (int r = 0; r < reps; ++r) {
      correlator->SetClusterThreads(1);
      const double s = TimedBuildMs(correlator.get(), &serial_set);
      correlator->SetClusterThreads(threads);
      const double p = TimedBuildMs(correlator.get(), &parallel_set);
      row.serial_ms = r == 0 ? s : std::min(row.serial_ms, s);
      row.parallel_ms = r == 0 ? p : std::min(row.parallel_ms, p);
    }
    row.clusters = parallel_set.clusters.size();
    identical = identical && SameClusters(serial_set, parallel_set);

    std::printf("%8d %9zu %11.2f %12.2f %7.2fx %9.2f\n", row.files, row.clusters,
                row.serial_ms, row.parallel_ms, row.serial_ms / row.parallel_ms,
                row.parallel_ms * 1000.0 / row.files);
    rows.push_back(row);
  }

  bench::PrintRule();
  std::printf("outputs identical across serial/parallel: %s\n", identical ? "yes" : "NO — BUG");
  std::printf(
      "paper reference: ~2 CPU minutes for a typical user's ~20,000 files\n"
      "on a 133 MHz Pentium; a rare, deferrable event.\n");

  const char* path = "BENCH_clustering.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "clustering_scale: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"clustering_scale\",\n");
  bench::WriteJsonMachineMeta(out);
  std::fprintf(out, "  \"scaling_valid\": %s,\n", scaling_valid ? "true" : "false");
  std::fprintf(out, "  \"threads\": %d,\n", threads);
  std::fprintf(out, "  \"outputs_identical\": %s,\n", identical ? "true" : "false");
  std::fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "    {\"files\": %d, \"clusters\": %zu, \"serial_ms\": %.3f, "
                 "\"parallel_ms\": %.3f, \"speedup\": %.3f, \"us_per_file\": %.3f}%s\n",
                 row.files, row.clusters, row.serial_ms, row.parallel_ms,
                 row.serial_ms / row.parallel_ms, row.parallel_ms * 1000.0 / row.files,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path);
  return identical ? 0 : 1;
}
