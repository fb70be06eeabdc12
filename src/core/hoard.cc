#include "src/core/hoard.h"

#include <algorithm>
#include <chrono>

namespace seer {

namespace {

double MsSince(std::chrono::steady_clock::time_point mark) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - mark)
      .count();
}

}  // namespace

bool HoardSelection::Contains(PathId path) const {
  if (sorted_ids.size() == files.size()) {
    return std::binary_search(sorted_ids.begin(), sorted_ids.end(), path);
  }
  // Hand-assembled selection without the index: fall back to a scan.
  return std::find(files.begin(), files.end(), path) != files.end();
}

std::vector<std::string> HoardSelection::PathStrings() const {
  std::vector<std::string> out;
  out.reserve(files.size());
  for (const PathId id : files) {
    out.emplace_back(GlobalPaths().PathOf(id));
  }
  std::sort(out.begin(), out.end());
  return out;
}

HoardSelection HoardManager::ChooseHoard(const Correlator& correlator,
                                         const ClusterSet& clusters,
                                         const std::set<PathId>& always_hoard,
                                         const SizeFn& size_of) const {
  const auto start = std::chrono::steady_clock::now();
  auto mark = start;

  HoardSelection sel;
  sel.budget_bytes = budget_bytes_;
  // The conservative all-directories-hoarded space assumption
  // (Section 4.6): charged before any file competes for the budget.
  sel.bytes_used = reserved_bytes_;

  const FileTable& files = correlator.files();
  const size_t n_clusters = clusters.clusters.size();
  const uint64_t epoch_now = files.touch_epoch();
  // A hand-assembled ClusterSet (tests) may lack membership hashes; without
  // them cluster identity cannot be validated, so fill from scratch.
  const bool have_hash = clusters.member_hash.size() == n_clusters;
  const bool warm = incremental_fill_ && fill_cache_valid_ && have_hash &&
                    cache_source_ == static_cast<const void*>(&correlator);

  fill_stats_ = HoardFillStats{};
  fill_stats_.clusters = n_clusters;
  fill_stats_.incremental = warm;

  // --- plan: which clusters moved since the cached epoch -------------------
  touched_.clear();
  cluster_dirty_.assign(n_clusters, warm ? 0 : 1);
  if (warm) {
    files.CollectTouchedSince(cache_epoch_, &touched_);
    for (const FileId f : touched_) {
      for (const uint32_t c : clusters.ClustersOf(f)) {
        cluster_dirty_[c] = 1;
      }
    }
  }
  fill_stats_.touched_files = touched_.size();

  // Reuse cached aggregates for clean clusters whose identity still
  // matches; everything else lands on the dirty list.
  agg_scratch_.assign(n_clusters, ClusterAggregate{});
  dirty_.clear();
  for (uint32_t c = 0; c < n_clusters; ++c) {
    const std::vector<FileId>& members = clusters.clusters[c].members;
    if (warm && !cluster_dirty_[c] && !members.empty()) {
      const uint32_t* idx = rep_index_.Find(members[0]);
      if (idx != nullptr && agg_cache_[*idx].member_hash == clusters.member_hash[c]) {
        agg_scratch_[c] = agg_cache_[*idx];
        continue;
      }
    }
    dirty_.push_back(c);
  }
  fill_stats_.dirty_clusters = dirty_.size();
  fill_stats_.reused_aggregates = n_clusters - dirty_.size();

  // --- size column refresh --------------------------------------------------
  // Resolve size_of once per (touched, live) file into a PathId-indexed
  // column; untouched files keep their cached size (SizeFn contract: a size
  // change is always accompanied by a file-table touch). A cold fill
  // resolves every live file.
  resolve_.clear();
  if (warm) {
    for (const FileId f : touched_) {
      const FileRecord& rec = files.Get(f);
      if (!rec.deleted && rec.path != kInvalidPathId) {
        resolve_.push_back(f);
      }
    }
  } else {
    for (FileId f = 0; f < files.size(); ++f) {
      const FileRecord& rec = files.Get(f);
      if (!rec.deleted && rec.path != kInvalidPathId) {
        resolve_.push_back(f);
      }
    }
  }
  fill_stats_.sizes_resolved = resolve_.size();
  if (size_col_.size() < GlobalPaths().size()) {
    size_col_.resize(GlobalPaths().size(), 0);
  }

  for (const FileId f : resolve_) {
    const PathId path = files.Get(f).path;
    size_col_[path] = size_of(path);
  }

  // --- recompute dirty aggregates -------------------------------------------
  for (const uint32_t c : dirty_) {
    const std::vector<FileId>& members = clusters.clusters[c].members;
    ClusterAggregate agg;
    agg.rep = members.empty() ? kInvalidFileId : members[0];
    agg.member_hash = have_hash ? clusters.member_hash[c] : 0;
    for (const FileId id : members) {
      const FileRecord& rec = files.Get(id);
      agg.priority = std::max(agg.priority, rec.last_ref_seq);
      if (!rec.deleted && rec.path != kInvalidPathId) {
        agg.live_bytes += size_col_[rec.path];
        ++agg.live_count;
      }
    }
    agg_scratch_[c] = agg;
  }
  fill_stats_.agg_ms = MsSince(mark);
  mark = std::chrono::steady_clock::now();

  // --- rank -----------------------------------------------------------------
  // A project is as recent as its most recently referenced member; ties
  // break on cluster index, giving a total order (the scratch and
  // incremental paths rank the identical aggregate table, so they cannot
  // diverge).
  rank_order_.resize(n_clusters);
  for (uint32_t c = 0; c < n_clusters; ++c) {
    rank_order_[c] = c;
  }
  std::sort(rank_order_.begin(), rank_order_.end(), [&](uint32_t a, uint32_t b) {
    if (agg_scratch_[a].priority != agg_scratch_[b].priority) {
      return agg_scratch_[a].priority > agg_scratch_[b].priority;
    }
    return a < b;
  });
  fill_stats_.rank_ms = MsSince(mark);
  mark = std::chrono::steady_clock::now();

  // --- greedy budgeted selection --------------------------------------------
  // Dense membership test: a PathId-indexed mark column (stamped per fill,
  // never cleared) plus the append-order selection vector. `sel_in_cluster_`
  // tracks, per cluster, the bytes of its live members already selected, so
  // a cluster's incremental cost is one subtraction instead of a member
  // walk — only clusters actually taken (or partially filled) are walked.
  ++sel_mark_;
  if (sel_mark_ == 0) {  // mark wrapped: old stamps could alias; reset all
    in_sel_mark_.assign(in_sel_mark_.size(), 0);
    sel_mark_ = 1;
  }
  if (in_sel_mark_.size() < GlobalPaths().size()) {
    in_sel_mark_.resize(GlobalPaths().size(), 0);
  }
  sel_in_cluster_.assign(n_clusters, 0);

  // Size of a selected path: live files come from the column (resolved
  // above); paths with no live record (non-file objects, pins to deleted
  // files) fall through to the caller's oracle, exactly as before.
  const auto size_of_path = [&](PathId path) -> uint64_t {
    const FileId id = files.Find(path);
    if (id != kInvalidFileId && !files.Get(id).deleted) {
      return size_col_[path];
    }
    return size_of(path);
  };

  const auto in_selection = [&](PathId path) { return in_sel_mark_[path] == sel_mark_; };

  // Ingress for always-hoard and pins: arbitrary paths, so file identity
  // must be looked up to resolve size and cluster membership.
  const auto add_file = [&](PathId path) {
    if (path == kInvalidPathId || in_selection(path)) {
      return;
    }
    in_sel_mark_[path] = sel_mark_;
    const uint64_t bytes = size_of_path(path);
    sel.bytes_used += bytes;
    sel.files.push_back(path);
    const FileId id = files.Find(path);
    if (id != kInvalidFileId && !files.Get(id).deleted) {
      for (const uint32_t c : clusters.ClustersOf(id)) {
        sel_in_cluster_[c] += bytes;
      }
    }
  };

  // Ingress for cluster members: the caller holds a live FileId, so no
  // path->id lookups — the size comes straight from the column and the
  // credit walk from the CSR membership index.
  const auto add_member = [&](FileId id, PathId path) {
    if (in_selection(path)) {
      return;
    }
    in_sel_mark_[path] = sel_mark_;
    const uint64_t bytes = size_col_[path];
    sel.bytes_used += bytes;
    sel.files.push_back(path);
    for (const uint32_t c : clusters.ClustersOf(id)) {
      sel_in_cluster_[c] += bytes;
    }
  };

  // Unconditional contents first: critical files, dot-files, non-files,
  // frequent files, and explicit user pins. These are included regardless
  // of the budget — the paper treats them as outside SEER's discretion.
  for (const PathId path : always_hoard) {
    add_file(path);
  }
  for (const PathId path : pinned_) {
    add_file(path);
  }

  // Greedily take whole projects while they fit. By default a project that
  // does not fit is skipped whole — partial projects are never hoarded
  // (Section 2); in the ablation mode it contributes its most recent
  // members instead.
  for (const uint32_t c : rank_order_) {
    const ClusterAggregate& agg = agg_scratch_[c];
    // Live bytes not yet selected — exact, because every selected live
    // file credited all clusters it belongs to at add time.
    const uint64_t extra = agg.live_bytes - sel_in_cluster_[c];
    if (sel.bytes_used + extra > budget_bytes_) {
      if (!allow_partial_) {
        ++sel.projects_skipped;
        continue;
      }
      // Partial fill (ablation mode): take the project's members most
      // recently referenced first, while they fit.
      const std::vector<FileId>& members = clusters.clusters[c].members;
      by_recency_.clear();
      for (const FileId id : members) {
        const FileRecord& rec = files.Get(id);
        if (!rec.deleted && rec.path != kInvalidPathId) {
          by_recency_.emplace_back(rec.last_ref_seq, id);
        }
      }
      std::sort(by_recency_.rbegin(), by_recency_.rend());
      bool took_any = false;
      for (const auto& [seq, id] : by_recency_) {
        const PathId path = files.Get(id).path;
        const uint64_t bytes = in_selection(path) ? 0 : size_col_[path];
        if (sel.bytes_used + bytes <= budget_bytes_) {
          add_member(id, path);
          took_any = true;
        }
      }
      if (took_any) {
        ++sel.projects_hoarded;
      } else {
        ++sel.projects_skipped;
      }
      continue;
    }
    for (const FileId id : clusters.clusters[c].members) {
      const FileRecord& rec = files.Get(id);
      if (!rec.deleted && rec.path != kInvalidPathId) {
        add_member(id, rec.path);
      }
    }
    ++sel.projects_hoarded;
  }

  sel.sorted_ids = sel.files;
  std::sort(sel.sorted_ids.begin(), sel.sorted_ids.end());
  fill_stats_.select_ms = MsSince(mark);

  // --- publish the cache for the next fill ----------------------------------
  agg_cache_.swap(agg_scratch_);
  rep_index_.Clear();
  for (uint32_t c = 0; c < n_clusters; ++c) {
    if (agg_cache_[c].rep != kInvalidFileId) {
      // Overlapping clusters may share a representative; the loser of this
      // slot simply misses its cache hit next fill (hash check recomputes).
      rep_index_.InsertOrGet(agg_cache_[c].rep) = c;
    }
  }
  cache_epoch_ = epoch_now;
  cache_source_ = static_cast<const void*>(&correlator);
  fill_cache_valid_ = have_hash;

  fill_stats_.fill_ms = MsSince(start);
  return sel;
}

void MissLog::CountRecord(const MissRecord& rec) {
  if (rec.automatic) {
    ++automatic_count_;
  } else if (static_cast<size_t>(rec.severity) < 5) {
    ++manual_by_severity_[static_cast<size_t>(rec.severity)];
  }
}

void MissLog::RecordManual(PathId path, Time time, MissSeverity severity) {
  MissRecord rec;
  rec.path = path;
  rec.time = time;
  rec.severity = severity;
  rec.automatic = false;
  records_.push_back(rec);
  CountRecord(rec);
  pending_hoard_.insert(path);
  seen_this_disconnection_.insert(path);
}

void MissLog::OnNotLocalAccess(PathId path, Pid /*pid*/, Time time) {
  if (!seen_this_disconnection_.insert(path).second) {
    return;  // already recorded this disconnection
  }
  MissRecord rec;
  rec.path = path;
  rec.time = time;
  rec.severity = MissSeverity::kMinor;
  rec.automatic = true;
  records_.push_back(rec);
  CountRecord(rec);
  pending_hoard_.insert(path);
}

void MissLog::StartDisconnection(Time /*time*/) {
  disconnected_ = true;
  disconnection_start_index_ = records_.size();
  seen_this_disconnection_.clear();
}

void MissLog::EndDisconnection() {
  disconnected_ = false;
  seen_this_disconnection_.clear();
}

size_t MissLog::CurrentDisconnectionMissCount() const {
  return records_.size() - disconnection_start_index_;
}

std::vector<PathId> MissLog::TakeFilesToHoard() {
  std::vector<PathId> out(pending_hoard_.begin(), pending_hoard_.end());
  pending_hoard_.clear();
  return out;
}

void MissLog::RestoreState(std::vector<MissRecord> records, std::set<PathId> pending_hoard) {
  records_ = std::move(records);
  pending_hoard_ = std::move(pending_hoard);
  seen_this_disconnection_.clear();
  disconnection_start_index_ = records_.size();
  disconnected_ = false;
  std::fill(std::begin(manual_by_severity_), std::end(manual_by_severity_), 0);
  automatic_count_ = 0;
  for (const MissRecord& rec : records_) {
    CountRecord(rec);
  }
}

}  // namespace seer
