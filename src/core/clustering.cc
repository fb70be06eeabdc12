#include "src/core/clustering.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <set>
#include <string_view>

#include "src/util/dsu.h"
#include "src/util/path.h"
#include "src/util/thread_pool.h"

namespace seer {

namespace {

constexpr uint32_t kNoSlot = static_cast<uint32_t>(-1);

// Task granularity for the parallel phases. Chunks are coarse and
// thread-proportional — a few contiguous ranges per worker — rather than a
// fixed small size: candidate slots ascend by FileId, so a contiguous
// range covers whole 256-file relation stripes and each worker walks slab
// rows it recently touched instead of interleaving cache lines with its
// peers. kChunksPerThread > 1 keeps dynamic balancing across skewed
// neighbor lists; kMinChunk bounds the claim-counter traffic; work below
// kSerialCutoff items skips the pool dispatch entirely (at small N the
// wake/join round-trip used to cost more than the scoring itself).
constexpr size_t kChunksPerThread = 4;
constexpr size_t kMinChunk = 64;
constexpr size_t kSerialCutoff = 2048;

// Number of non-empty '/'-separated segments, as SplitPath counts them.
size_t CountComponents(std::string_view path) {
  size_t count = 0;
  size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') {
      ++i;
    }
    if (i >= path.size()) {
      break;
    }
    ++count;
    while (i < path.size() && path[i] != '/') {
      ++i;
    }
  }
  return count;
}

// Splits the directory components of `path` (every component but the
// basename, `count` of them) into out[0, count).
void SplitDirs(std::string_view path, size_t count, std::string_view* out) {
  size_t pos = 0;
  for (size_t k = 0; k < count; ++k) {
    while (pos < path.size() && path[pos] == '/') {
      ++pos;
    }
    const size_t start = pos;
    while (pos < path.size() && path[pos] != '/') {
      ++pos;
    }
    out[k] = path.substr(start, pos - start);
  }
}

// Directory distance (Section 3.3.3) between two split dirnames: the
// components after their longest common prefix, counted on both sides.
int DirDistance(const std::string_view* a, size_t na, const std::string_view* b, size_t nb) {
  size_t common = 0;
  while (common < na && common < nb && a[common] == b[common]) {
    ++common;
  }
  return static_cast<int>((na - common) + (nb - common));
}

}  // namespace

ClusterIndexSpan ClusterSet::ClustersOf(FileId id) const {
  if (membership_offset.empty() || id + 1 >= membership_offset.size()) {
    return ClusterIndexSpan();
  }
  const uint32_t begin = membership_offset[id];
  const uint32_t end = membership_offset[id + 1];
  return ClusterIndexSpan(membership_ids.data() + begin, end - begin);
}

ClusterBuilder::ClusterBuilder(const SeerParams& params, const FileTable* files,
                               const RelationTable* relations)
    : params_(params),
      files_(files),
      relations_(relations),
      // PairKey packs lo < hi, so all-ones can never be a real key.
      investigated_(static_cast<uint64_t>(-1)) {}

ClusterBuilder::~ClusterBuilder() = default;

uint64_t ClusterBuilder::PairKey(FileId a, FileId b) const {
  const FileId lo = std::min(a, b);
  const FileId hi = std::max(a, b);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

void ClusterBuilder::AddInvestigatedPair(FileId a, FileId b, double strength) {
  if (a == b || a == kInvalidFileId || b == kInvalidFileId) {
    return;
  }
  bool inserted = false;
  investigated_.InsertOrGet(PairKey(a, b), &inserted) += strength;
  if (inserted) {
    const FileId hi = std::max(a, b);
    if (inv_partners_.size() <= hi) {
      inv_partners_.resize(hi + 1);
    }
    inv_partners_[a].push_back(b);
    inv_partners_[b].push_back(a);
  }
}

void ClusterBuilder::ClearInvestigatedPairs() {
  investigated_.Clear();
  inv_partners_.clear();
}

double ClusterBuilder::InvestigatedStrength(FileId a, FileId b) const {
  const double* strength = investigated_.Find(PairKey(a, b));
  return strength == nullptr ? 0.0 : *strength;
}

void ClusterBuilder::set_threads(int threads) {
  threads_ = threads;
  const int want = threads_ > 0 ? threads_ : DefaultThreadCount();
  if (pool_ != nullptr && pool_threads_ != want) {
    pool_.reset();
  }
}

int ClusterBuilder::threads() const {
  return threads_ > 0 ? threads_ : DefaultThreadCount();
}

void ClusterBuilder::set_shared_pool(ThreadPool* pool) {
  shared_pool_ = pool;
  if (pool != nullptr) {
    pool_.reset();
  }
}

ThreadPool* ClusterBuilder::Pool() const {
  if (shared_pool_ != nullptr) {
    return shared_pool_;
  }
  const int want = threads_ > 0 ? threads_ : DefaultThreadCount();
  if (pool_ == nullptr || pool_threads_ != want) {
    pool_ = std::make_unique<ThreadPool>(want);
    pool_threads_ = want;
  }
  return pool_.get();
}

double ClusterBuilder::AdjustedSharedCount(FileId from, FileId to) const {
  // Raw shared-neighbor count over the relation table's (partial)
  // knowledge.
  std::vector<FileId> a;
  std::vector<FileId> b;
  a.reserve(relations_->max_neighbors());
  b.reserve(relations_->max_neighbors());
  relations_->LiveNeighborIds(from, &a);
  relations_->LiveNeighborIds(to, &b);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  size_t shared = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++shared;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }

  double x = static_cast<double>(shared);
  // Directory distance is evidence of separation: subtract (Section 3.3.3).
  if (params_.dir_distance_weight > 0.0) {
    x -= params_.dir_distance_weight *
         static_cast<double>(DirectoryDistance(files_->PathOf(from), files_->PathOf(to)));
  }
  // Investigator relations are evidence of closeness: add.
  x += params_.investigator_weight * InvestigatedStrength(from, to);
  return x;
}

// One build's inputs and scored edges, by candidate slot. Build makes a
// fresh one on every call and drops it on return, so nothing computed in
// one build reaches the next. Each per-slot list is a slice of one flat
// array, so a build allocates per table, not per file.
struct ClusterBuilder::BuildState {
  std::vector<uint32_t> slot_of;  // FileId -> slot, kNoSlot for non-candidates
  // Sorted live-neighbor rows at a fixed stride: a row never holds more
  // than max_neighbors ids.
  size_t row_stride = 0;
  std::vector<FileId> rows;
  std::vector<uint32_t> row_size;
  // Interner path views (stable for the process lifetime) and their
  // directory components, the basename dropped: slot s owns
  // dirs[dir_begin[s], dir_begin[s + 1]).
  std::vector<std::string_view> path;
  std::vector<uint32_t> dir_begin;
  std::vector<std::string_view> dirs;
  // Scored edges (x >= kf) as candidate slots: slot s owns
  // edges[edge_begin[s], edge_begin[s] + edge_count[s]), near edges
  // (x >= kn) first. edge_begin leaves room for every edge a slot can
  // have: one per row entry and one per investigated partner.
  std::vector<uint32_t> edge_begin;
  std::vector<uint32_t> edges;
  std::vector<uint32_t> edge_count;
  std::vector<uint32_t> near_count;
};

struct ClusterBuilder::ScoreScratch {
  std::vector<FileId> row;
  std::vector<uint32_t> far;
};

void ClusterBuilder::RefreshInputs(uint32_t slot, FileId f, BuildState* s,
                                   ScoreScratch* scratch) const {
  // Append overload: one pass over the id stripe into a reused buffer.
  scratch->row.clear();
  relations_->LiveNeighborIds(f, &scratch->row);
  std::sort(scratch->row.begin(), scratch->row.end());
  std::copy(scratch->row.begin(), scratch->row.end(), s->rows.begin() + slot * s->row_stride);
  s->row_size[slot] = static_cast<uint32_t>(scratch->row.size());

  // One interner shared-lock hit per candidate, not per scored edge; the
  // view is stable (the interner is append-only).
  const std::string_view path = files_->PathOf(f);
  const size_t comps = CountComponents(path);
  s->path[slot] = path;
  // Slice sizes for now; Build turns them into offsets.
  s->dir_begin[slot + 1] = comps > 0 ? static_cast<uint32_t>(comps - 1) : 0;  // drop the basename
  s->edge_begin[slot + 1] = s->row_size[slot] + static_cast<uint32_t>(
      f < inv_partners_.size() ? inv_partners_[f].size() : 0);
}

void ClusterBuilder::ScoreSlot(uint32_t slot, FileId f, BuildState* s, ScoreScratch* scratch,
                               size_t* edges_scored) const {
  const FileId* frow = s->rows.data() + slot * s->row_stride;
  const FileId* frow_end = frow + s->row_size[slot];
  const std::string_view* fdirs = s->dirs.data() + s->dir_begin[slot];
  const size_t fdir_count = s->dir_begin[slot + 1] - s->dir_begin[slot];
  const double near_threshold = static_cast<double>(params_.cluster_near);
  const double far_threshold = static_cast<double>(params_.cluster_far);
  uint32_t* near = s->edges.data() + s->edge_begin[slot];
  uint32_t near_count = 0;
  scratch->far.clear();

  auto score_edge = [&](uint32_t other, FileId g) {
    const FileId* grow = s->rows.data() + other * s->row_stride;
    const FileId* grow_end = grow + s->row_size[other];
    size_t shared = 0;
    const FileId* a = frow;
    const FileId* b = grow;
    while (a < frow_end && b < grow_end) {
      if (*a == *b) {
        ++shared;
        ++a;
        ++b;
      } else if (*a < *b) {
        ++a;
      } else {
        ++b;
      }
    }
    double x = static_cast<double>(shared);
    if (params_.dir_distance_weight > 0.0) {
      x -= params_.dir_distance_weight *
           static_cast<double>(DirDistance(fdirs, fdir_count, s->dirs.data() + s->dir_begin[other],
                                           s->dir_begin[other + 1] - s->dir_begin[other]));
    }
    x += params_.investigator_weight * InvestigatedStrength(f, g);
    ++*edges_scored;
    if (x >= near_threshold) {
      near[near_count++] = other;
    } else if (x >= far_threshold) {
      scratch->far.push_back(other);
    }
  };

  const auto slot_of = [s](FileId g) {
    return g < s->slot_of.size() ? s->slot_of[g] : kNoSlot;
  };
  for (const FileId* g = frow; g < frow_end; ++g) {
    const uint32_t other = slot_of(*g);
    if (*g != f && other != kNoSlot) {
      score_edge(other, *g);
    }
  }
  if (f < inv_partners_.size()) {
    for (const FileId partner : inv_partners_[f]) {
      const uint32_t other = slot_of(partner);
      // A partner in the row was already scored through it above.
      if (other != kNoSlot && !std::binary_search(frow, frow_end, partner)) {
        score_edge(other, partner);
      }
    }
  }

  std::copy(scratch->far.begin(), scratch->far.end(), near + near_count);
  s->near_count[slot] = near_count;
  s->edge_count[slot] = near_count + static_cast<uint32_t>(scratch->far.size());
}

ClusterSet ClusterBuilder::Build(const std::vector<FileId>& candidates) const {
  const auto start = std::chrono::steady_clock::now();
  const size_t n = candidates.size();

  stats_ = ClusterBuildStats{};
  stats_.candidates = n;

  const auto MsSince = [](std::chrono::steady_clock::time_point from) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - from)
        .count();
  };

  ThreadPool* pool = Pool();
  stats_.threads = pool->threads();

  // Shared dispatcher for the parallel phases: runs body(lo, hi) over
  // [0, items), inline when the pool is serial or the work is under the
  // adaptive cutoff, otherwise in coarse contiguous ranges (see the
  // granularity constants above). Every body is a pure per-item function
  // with disjoint writes, so the split cannot affect results.
  const auto RunRanges = [&](size_t items, const std::function<void(size_t, size_t)>& body) {
    const size_t workers = static_cast<size_t>(pool->threads());
    const size_t chunks =
        std::min(workers * kChunksPerThread, (items + kMinChunk - 1) / kMinChunk);
    if (workers <= 1 || items <= kSerialCutoff || chunks <= 1) {
      body(0, items);
      return;
    }
    const size_t per = (items + chunks - 1) / chunks;
    pool->ParallelChunks(chunks, [&](size_t c) {
      const size_t lo = c * per;
      const size_t hi = std::min(items, lo + per);
      if (lo < hi) {
        body(lo, hi);
      }
    });
  };

  // 1. Slot the candidates.
  auto mark = std::chrono::steady_clock::now();
  BuildState state;
  size_t max_file = files_->size();
  for (const FileId f : candidates) {
    max_file = std::max(max_file, static_cast<size_t>(f) + 1);
  }
  state.slot_of.assign(max_file, kNoSlot);
  for (size_t i = 0; i < n; ++i) {
    state.slot_of[candidates[i]] = static_cast<uint32_t>(i);
  }

  // 2. Refresh their inputs, in parallel: writes are disjoint per slot and
  // each result is a pure per-file function, so order (and thread count)
  // cannot matter. The first pass sizes each slot's slices, the second
  // splits the paths into the directory slices.
  state.row_stride = static_cast<size_t>(relations_->max_neighbors());
  state.rows.resize(n * state.row_stride);
  state.row_size.resize(n);
  state.path.resize(n);
  state.dir_begin.assign(n + 1, 0);
  state.edge_begin.assign(n + 1, 0);
  RunRanges(n, [&](size_t lo, size_t hi) {
    ScoreScratch scratch;
    for (size_t i = lo; i < hi; ++i) {
      RefreshInputs(static_cast<uint32_t>(i), candidates[i], &state, &scratch);
    }
  });
  for (size_t i = 0; i < n; ++i) {
    state.dir_begin[i + 1] += state.dir_begin[i];
    state.edge_begin[i + 1] += state.edge_begin[i];
  }
  state.dirs.resize(state.dir_begin[n]);
  RunRanges(n, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      SplitDirs(state.path[i], state.dir_begin[i + 1] - state.dir_begin[i],
                state.dirs.data() + state.dir_begin[i]);
    }
  });
  stats_.pack_ms = MsSince(mark);

  // 3. Score every edge, in parallel. Buckets are disjoint per slot, all
  // other state is read-only, and the bucket content is a pure function of
  // the inputs — so the merge below is order-independent and the output is
  // identical at any thread count.
  mark = std::chrono::steady_clock::now();
  state.edges.resize(state.edge_begin[n]);
  state.edge_count.resize(n);
  state.near_count.resize(n);
  std::atomic<size_t> edges_scored{0};
  RunRanges(n, [&](size_t lo, size_t hi) {
    ScoreScratch scratch;
    size_t local = 0;
    for (size_t i = lo; i < hi; ++i) {
      ScoreSlot(static_cast<uint32_t>(i), candidates[i], &state, &scratch, &local);
    }
    edges_scored.fetch_add(local, std::memory_order_relaxed);
  });
  stats_.edges_scored = edges_scored.load(std::memory_order_relaxed);
  stats_.score_ms = MsSince(mark);
  mark = std::chrono::steady_clock::now();

  // 4. Union the near edges (sequential): combine clusters across them.
  Dsu dsu(n);
  for (uint32_t slot = 0; slot < n; ++slot) {
    const uint32_t* bucket = state.edges.data() + state.edge_begin[slot];
    for (uint32_t i = 0; i < state.near_count[slot]; ++i) {
      dsu.Union(slot, bucket[i]);
    }
  }

  // Materialise phase-one clusters, numbered by first-touched member so the
  // output order is independent of DSU root identity.
  std::vector<uint32_t> root_to_cluster(n, kNoSlot);
  std::vector<uint32_t> cluster_of(n);
  std::vector<std::vector<FileId>> members;
  for (uint32_t slot = 0; slot < n; ++slot) {
    const uint32_t root = dsu.Find(slot);
    if (root_to_cluster[root] == kNoSlot) {
      root_to_cluster[root] = static_cast<uint32_t>(members.size());
      members.emplace_back();
    }
    const uint32_t cluster = root_to_cluster[root];
    members[cluster].push_back(candidates[slot]);
    cluster_of[slot] = cluster;
  }

  // 5. Overlap the far edges: each file joins the other's phase-one
  // cluster, with no merge. Clusters untouched here keep their phase-one
  // member lists, which are already sorted and unique (slots are walked in
  // order and candidates ascend), so only touched clusters need the
  // sort/dedup below.
  std::vector<uint8_t> cluster_touched(members.size(), 0);
  for (uint32_t slot = 0; slot < n; ++slot) {
    const uint32_t* bucket = state.edges.data() + state.edge_begin[slot];
    for (uint32_t i = state.near_count[slot]; i < state.edge_count[slot]; ++i) {
      const uint32_t other = bucket[i];
      if (cluster_of[slot] == cluster_of[other]) {
        continue;
      }
      members[cluster_of[other]].push_back(candidates[slot]);
      members[cluster_of[slot]].push_back(candidates[other]);
      cluster_touched[cluster_of[other]] = 1;
      cluster_touched[cluster_of[slot]] = 1;
    }
  }

  // Sort/dedup the touched clusters' members in parallel (clusters are
  // disjoint vectors; sorting is per-cluster pure, so order cannot matter).
  std::vector<uint32_t> touched_list;
  for (uint32_t c = 0; c < cluster_touched.size(); ++c) {
    if (cluster_touched[c]) {
      touched_list.push_back(c);
    }
  }
  if (!touched_list.empty()) {
    RunRanges(touched_list.size(), [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        std::vector<FileId>& m = members[touched_list[i]];
        std::sort(m.begin(), m.end());
        m.erase(std::unique(m.begin(), m.end()), m.end());
      }
    });
  }

  // 6. Emit. Identical clusters can only arise from far overlap (phase-one
  // clusters are disjoint), so only touched clusters need the duplicate
  // check: overlapping two singletons yields two identical clusters; keep
  // one.
  ClusterSet out;
  out.clusters.reserve(members.size());
  std::set<std::vector<FileId>> emitted;
  for (uint32_t c = 0; c < members.size(); ++c) {
    std::vector<FileId>& m = members[c];
    if (cluster_touched[c] && !emitted.insert(m).second) {
      continue;
    }
    out.clusters.push_back(Cluster{std::move(m)});
  }

  // Membership identity hashes for the hoard plane's aggregate cache.
  // Members are sorted unique, so the fold is deterministic; computed here
  // where the members are already hot in cache.
  out.member_hash.resize(out.clusters.size());
  for (size_t ci = 0; ci < out.clusters.size(); ++ci) {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const FileId id : out.clusters[ci].members) {
      uint64_t x = h ^ (static_cast<uint64_t>(id) + 0x9e3779b97f4a7c15ull);
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      h = x ^ (x >> 31);
    }
    out.member_hash[ci] = h;
  }

  // Membership as CSR: count, prefix-sum, fill. Clusters are walked in
  // ascending index order, so each file's index list comes out ascending.
  const size_t nf = state.slot_of.size();
  out.membership_offset.assign(nf + 1, 0);
  for (const Cluster& c : out.clusters) {
    for (const FileId id : c.members) {
      ++out.membership_offset[id + 1];
    }
  }
  for (size_t i = 0; i < nf; ++i) {
    out.membership_offset[i + 1] += out.membership_offset[i];
  }
  out.membership_ids.resize(out.membership_offset[nf]);
  std::vector<uint32_t> cursor(out.membership_offset.begin(), out.membership_offset.end() - 1);
  for (size_t ci = 0; ci < out.clusters.size(); ++ci) {
    for (const FileId id : out.clusters[ci].members) {
      out.membership_ids[cursor[id]++] = static_cast<uint32_t>(ci);
    }
  }

  stats_.merge_ms = MsSince(mark);
  stats_.build_ms = MsSince(start);
  return out;
}

}  // namespace seer
