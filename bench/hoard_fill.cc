// Hoard-fill plane bench — BENCH_hoard.json.
//
// Measures the incremental fill plane against two baselines:
//   * legacy    — the pre-refactor ChooseHoard, reimplemented here verbatim:
//                 std::set<PathId> selection, per-membership set lookups, a
//                 full member walk per cluster per fill;
//   * scratch   — the shipped plane with the aggregate cache disabled
//                 (every fill re-walks all clusters);
//   * incremental — the shipped plane warm, refilling after touching 1% of
//                 the files (the daemon's steady state).
//
// Plus an allocation count per warm fill. Every mode's selection is
// byte-compared against the legacy baseline; "selection_identical" in the JSON is the determinism
// gate — a perf win that changes the selection is a bug, not a win.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/hoard.h"

// --- allocation counting (same idiom as bench/overhead.cc) -------------------
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace seer {
namespace {

constexpr int kFilesPerProject = 16;

int FileCount() {
  if (const char* v = std::getenv("SEER_BENCH_HOARD_FILES")) {
    const int n = std::atoi(v);
    if (n >= kFilesPerProject) {
      return n;
    }
  }
  return bench::FullScale() ? 32768 : 16384;
}

int Reps() { return bench::FullScale() ? 24 : 10; }

// The size oracle mirrors the shipped caller (src/sim/live_sim.cc): a
// PathId is rendered to its path string and looked up in a string-keyed
// stat table — the filesystem's interface speaks strings, not ids. That
// per-call cost (string materialisation + string hash) is exactly what the
// fill plane's PathId-indexed size column caches away. Read-only during
// fills, so pure per the SizeFn contract. ~64-576 bytes/file.
uint64_t RawSize(PathId p) {
  return 64 + (static_cast<uint64_t>(p) * 2654435761ull) % 512;
}

std::unordered_map<std::string, uint64_t> BuildStatTable() {
  std::unordered_map<std::string, uint64_t> table;
  const size_t n = GlobalPaths().size();
  table.reserve(n);
  for (PathId p = 0; p < n; ++p) {
    table.emplace(std::string(GlobalPaths().PathOf(p)), RawSize(p));
  }
  return table;
}

// One process stream per project, two passes, so projects cluster cleanly
// (the LoadedCorrelator recipe from bench/overhead.cc).
std::unique_ptr<Correlator> BuildCorrelator(int n_files) {
  auto correlator = std::make_unique<Correlator>();
  Time t = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (int f = 0; f < n_files; ++f) {
      const int project = f / kFilesPerProject;
      FileReference ref;
      ref.pid = 1 + static_cast<Pid>(project);
      ref.kind = RefKind::kPoint;
      ref.path = GlobalPaths().Intern("/hf/p" + std::to_string(project) + "/f" +
                                      std::to_string(f % kFilesPerProject));
      ref.time = (t += 1000);
      correlator->OnReference(ref);
    }
  }
  return correlator;
}

// Touches ~1% of the files (recency only; membership untouched, so cached
// aggregates for the other 99% of clusters stay valid). A fresh pid per
// round keeps the churn stream from forging new relations.
void TouchOnePercent(Correlator* correlator, int n_files, int round) {
  static Time t = 1'000'000'000;
  const int step = 100;
  for (int f = round % step; f < n_files; f += step) {
    const int project = f / kFilesPerProject;
    FileReference ref;
    ref.pid = 1'000'000 + static_cast<Pid>(round);
    ref.kind = RefKind::kPoint;
    ref.path = GlobalPaths().Intern("/hf/p" + std::to_string(project) + "/f" +
                                    std::to_string(f % kFilesPerProject));
    ref.time = (t += 1000);
    correlator->OnReference(ref);
  }
}

// --- the pre-refactor fill, verbatim -----------------------------------------
// std::set selection, membership by set lookup, per-fill allocation of the
// ranking vector, a full member walk for every cluster. This is the
// baseline the aggregate cache and dense selection replace.
struct LegacySelection {
  std::set<PathId> files;
  uint64_t bytes_used = 0;
  size_t projects_hoarded = 0;
  size_t projects_skipped = 0;
};

LegacySelection LegacyChooseHoard(const Correlator& correlator,
                                  const ClusterSet& clusters,
                                  const std::set<PathId>& always_hoard,
                                  uint64_t budget_bytes,
                                  const std::function<uint64_t(PathId)>& size_of) {
  LegacySelection sel;
  auto add_file = [&](PathId path) {
    if (path == kInvalidPathId || sel.files.count(path) != 0) {
      return;
    }
    sel.bytes_used += size_of(path);
    sel.files.insert(path);
  };
  for (const PathId path : always_hoard) {
    add_file(path);
  }
  const FileTable& files = correlator.files();
  struct Ranked {
    uint64_t priority = 0;
    uint32_t index = 0;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(clusters.clusters.size());
  for (uint32_t i = 0; i < clusters.clusters.size(); ++i) {
    uint64_t priority = 0;
    for (const FileId id : clusters.clusters[i].members) {
      priority = std::max(priority, files.Get(id).last_ref_seq);
    }
    ranked.push_back({priority, i});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    return a.priority > b.priority || (a.priority == b.priority && a.index < b.index);
  });
  for (const Ranked& r : ranked) {
    const Cluster& cluster = clusters.clusters[r.index];
    uint64_t extra = 0;
    for (const FileId id : cluster.members) {
      const FileRecord& rec = files.Get(id);
      if (rec.deleted || rec.path == kInvalidPathId) {
        continue;
      }
      if (sel.files.count(rec.path) == 0) {
        extra += size_of(rec.path);
      }
    }
    if (sel.bytes_used + extra > budget_bytes) {
      ++sel.projects_skipped;
      continue;
    }
    for (const FileId id : cluster.members) {
      const FileRecord& rec = files.Get(id);
      if (!rec.deleted && rec.path != kInvalidPathId) {
        add_file(rec.path);
      }
    }
    ++sel.projects_hoarded;
  }
  return sel;
}

struct FillCost {
  double fill_ns = 0.0;         // best-of-reps wall time per fill
  double allocs_per_fill = 0.0;  // averaged over the timed reps
};

template <typename Fn>
FillCost MeasureFill(int reps, const Fn& one_fill) {
  FillCost cost;
  cost.fill_ns = 1e18;
  g_allocation_count.store(0, std::memory_order_relaxed);
  uint64_t allocs_total = 0;
  for (int rep = 0; rep < reps; ++rep) {
    g_allocation_count.store(0, std::memory_order_relaxed);
    g_count_allocations.store(true, std::memory_order_relaxed);
    const auto start = std::chrono::steady_clock::now();
    one_fill(rep);
    const auto stop = std::chrono::steady_clock::now();
    g_count_allocations.store(false, std::memory_order_relaxed);
    allocs_total += g_allocation_count.load(std::memory_order_relaxed);
    cost.fill_ns = std::min(
        cost.fill_ns,
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count()));
  }
  cost.allocs_per_fill = static_cast<double>(allocs_total) / reps;
  return cost;
}

bool SameSelection(const LegacySelection& legacy, const HoardSelection& got) {
  if (legacy.bytes_used != got.bytes_used ||
      legacy.projects_hoarded != got.projects_hoarded ||
      legacy.projects_skipped != got.projects_skipped ||
      legacy.files.size() != got.sorted_ids.size()) {
    return false;
  }
  // std::set iterates ascending; sorted_ids is ascending by construction.
  return std::equal(legacy.files.begin(), legacy.files.end(), got.sorted_ids.begin());
}

void RunHoardFillBench() {
  const int n_files = FileCount();
  const int reps = Reps();
  bench::PrintHeader("Hoard-fill plane: epoch-cached aggregates vs scratch vs legacy");

  auto correlator = BuildCorrelator(n_files);
  const ClusterSet clusters = correlator->BuildClusters();
  const std::unordered_map<std::string, uint64_t> stat_table = BuildStatTable();
  const auto SizeOf = [&stat_table](PathId p) -> uint64_t {
    const auto it = stat_table.find(std::string(GlobalPaths().PathOf(p)));
    return it != stat_table.end() ? it->second : 64;
  };
  // Budget fits roughly a quarter of the total bytes, so the greedy
  // selection neither degenerates to "take everything" nor to "skip
  // everything" — both would flatter the skip-cost optimisation.
  uint64_t total_bytes = 0;
  for (FileId id = 0; id < correlator->files().size(); ++id) {
    const FileRecord& rec = correlator->files().Get(id);
    if (!rec.deleted && rec.path != kInvalidPathId) {
      total_bytes += SizeOf(rec.path);
    }
  }
  const uint64_t budget = total_bytes / 4;
  const std::set<PathId> always;

  std::printf("files=%d projects=%d clusters=%zu budget=%llu of %llu bytes\n",
              n_files, n_files / kFilesPerProject, clusters.clusters.size(),
              static_cast<unsigned long long>(budget),
              static_cast<unsigned long long>(total_bytes));

  // --- legacy baseline ------------------------------------------------------
  LegacySelection legacy_sel;
  const FillCost legacy = MeasureFill(reps, [&](int) {
    legacy_sel = LegacyChooseHoard(*correlator, clusters, always, budget, SizeOf);
  });

  // --- scratch: shipped plane, cache disabled ------------------------------
  HoardManager scratch_mgr(budget);
  scratch_mgr.set_incremental_fill(false);
  HoardSelection scratch_sel;
  scratch_mgr.ChooseHoard(*correlator, clusters, always, SizeOf);  // warm scratch vectors
  const FillCost scratch = MeasureFill(reps, [&](int) {
    scratch_sel = scratch_mgr.ChooseHoard(*correlator, clusters, always, SizeOf);
  });

  // --- incremental: warm cache, 1% of the files touched between fills ------
  HoardManager inc_mgr(budget);
  inc_mgr.ChooseHoard(*correlator, clusters, always, SizeOf);  // prime the cache
  HoardSelection inc_sel;
  const FillCost incremental = MeasureFill(reps, [&](int rep) {
    inc_sel = inc_mgr.ChooseHoard(*correlator, clusters, always, SizeOf);
    (void)rep;
  });
  // Re-measure with the touch outside the timed+counted window each rep:
  // the touch itself is ingest work, not fill work.
  FillCost incremental_touched;
  incremental_touched.fill_ns = 1e18;
  {
    uint64_t allocs_total = 0;
    for (int rep = 0; rep < reps; ++rep) {
      TouchOnePercent(correlator.get(), n_files, rep);
      g_allocation_count.store(0, std::memory_order_relaxed);
      g_count_allocations.store(true, std::memory_order_relaxed);
      const auto start = std::chrono::steady_clock::now();
      inc_sel = inc_mgr.ChooseHoard(*correlator, clusters, always, SizeOf);
      const auto stop = std::chrono::steady_clock::now();
      g_count_allocations.store(false, std::memory_order_relaxed);
      allocs_total += g_allocation_count.load(std::memory_order_relaxed);
      incremental_touched.fill_ns = std::min(
          incremental_touched.fill_ns,
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count()));
    }
    incremental_touched.allocs_per_fill = static_cast<double>(allocs_total) / reps;
  }
  const HoardFillStats inc_stats = inc_mgr.last_fill_stats();

  // --- identity: every mode must produce the same selection -----------------
  // (The touched rounds changed recency, so re-fill scratch and legacy on
  // the current state before comparing.)
  const LegacySelection legacy_now =
      LegacyChooseHoard(*correlator, clusters, always, budget, SizeOf);
  scratch_sel = scratch_mgr.ChooseHoard(*correlator, clusters, always, SizeOf);
  const bool identical = SameSelection(legacy_now, scratch_sel) &&
                         SameSelection(legacy_now, inc_sel) &&
                         scratch_sel.files == inc_sel.files;

  // --- JSON ------------------------------------------------------------------
  const char* path = "BENCH_hoard.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "hoard_fill: cannot write %s\n", path);
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"hoard_fill\",\n");
  bench::WriteJsonMachineMeta(out);
  std::fprintf(out, "  \"files\": %d,\n", n_files);
  std::fprintf(out, "  \"clusters\": %zu,\n", clusters.clusters.size());
  std::fprintf(out, "  \"budget_bytes\": %llu,\n",
               static_cast<unsigned long long>(budget));
  std::fprintf(out, "  \"legacy\": {\"fill_ns\": %.0f, \"allocs_per_fill\": %.1f},\n",
               legacy.fill_ns, legacy.allocs_per_fill);
  std::fprintf(out, "  \"scratch\": {\"fill_ns\": %.0f, \"allocs_per_fill\": %.1f},\n",
               scratch.fill_ns, scratch.allocs_per_fill);
  std::fprintf(out,
               "  \"incremental_1pct\": {\"fill_ns\": %.0f, \"allocs_per_fill\": %.1f, "
               "\"dirty_clusters\": %zu, \"reused_aggregates\": %zu, "
               "\"touched_files\": %zu},\n",
               incremental_touched.fill_ns, incremental_touched.allocs_per_fill,
               inc_stats.dirty_clusters, inc_stats.reused_aggregates,
               inc_stats.touched_files);
  std::fprintf(out, "  \"incremental_noop\": {\"fill_ns\": %.0f, \"allocs_per_fill\": %.1f},\n",
               incremental.fill_ns, incremental.allocs_per_fill);
  std::fprintf(out, "  \"incremental_vs_scratch\": %.4f,\n",
               scratch.fill_ns > 0 ? incremental_touched.fill_ns / scratch.fill_ns : 0.0);
  std::fprintf(out, "  \"selection_identical\": %s\n", identical ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);

  std::printf("\nwrote %s:\n", path);
  std::printf("  legacy      : %10.0f ns/fill  %8.1f allocs/fill\n", legacy.fill_ns,
              legacy.allocs_per_fill);
  std::printf("  scratch     : %10.0f ns/fill  %8.1f allocs/fill\n", scratch.fill_ns,
              scratch.allocs_per_fill);
  std::printf("  incremental : %10.0f ns/fill  %8.1f allocs/fill  (1%% touch: %zu of %zu "
              "clusters dirty)\n",
              incremental_touched.fill_ns, incremental_touched.allocs_per_fill,
              inc_stats.dirty_clusters, inc_stats.clusters);
  std::printf("  incremental/scratch ratio: %.3f\n",
              scratch.fill_ns > 0 ? incremental_touched.fill_ns / scratch.fill_ns : 0.0);
  std::printf("  selection identical across all modes: %s\n",
              identical ? "yes" : "NO (BUG)");
}

}  // namespace
}  // namespace seer

int main() {
  seer::RunHoardFillBench();
  return 0;
}
