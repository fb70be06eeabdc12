// Section 3.3.2 — Clustering time complexity.
//
// SEER's variation of Jarvis-Patrick avoids the O(N^2) all-pairs neighbor
// comparison by reusing the relation table's per-file lists, giving O(N)
// time. This bench measures the wall-clock time of a cluster build (one
// serial pass) across a range of file counts; per-file cost should stay
// roughly flat as N grows (the O(N) claim).
//
// In addition to the interactive table, the binary always writes
// BENCH_clustering.json — rows of {files, clusters, serial_ms,
// us_per_file} — so future changes have a machine-readable perf trajectory
// to compare against.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/correlator.h"

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

}  // namespace
}  // namespace seer

int main() {
  using namespace seer;
  bench::PrintHeader(
      "Clustering scalability (Section 3.3.2): per-file cost should stay\n"
      "roughly flat with N (the O(N) shared-neighbor variation)");

  std::printf("%8s %9s %11s %9s\n", "files", "clusters", "serial(ms)", "us/file");
  bench::PrintRule();

  const int reps = bench::FullScale() ? 3 : 2;
  const int max_n = bench::FullScale() ? 65'536 : 16'384;

  struct Row {
    int files = 0;
    size_t clusters = 0;
    double serial_ms = 0.0;
  };
  std::vector<Row> rows;

  for (int n = 1024; n <= max_n; n *= 2) {
    auto correlator = LoadedCorrelator(n, kProjectSize);

    Row row;
    row.files = n;
    ClusterSet clusters;
    for (int r = 0; r < reps; ++r) {
      const double ms = TimedBuildMs(correlator.get(), &clusters);
      row.serial_ms = r == 0 ? ms : std::min(row.serial_ms, ms);
    }
    row.clusters = clusters.clusters.size();

    std::printf("%8d %9zu %11.2f %9.2f\n", row.files, row.clusters, row.serial_ms,
                row.serial_ms * 1000.0 / row.files);
    rows.push_back(row);
  }

  bench::PrintRule();
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
  std::fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "    {\"files\": %d, \"clusters\": %zu, \"serial_ms\": %.3f, "
                 "\"us_per_file\": %.3f}%s\n",
                 row.files, row.clusters, row.serial_ms, row.serial_ms * 1000.0 / row.files,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path);
  return 0;
}
