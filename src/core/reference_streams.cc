#include "src/core/reference_streams.h"

#include <algorithm>

namespace seer {

namespace {

// Sentinel pid used when per-process separation is disabled (ablation of
// Section 4.7).
constexpr Pid kGlobalStream = 0;

}  // namespace

ReferenceStreams::Stream& ReferenceStreams::GetStream(Pid pid) {
  Stream& s = streams_[params_.per_process_streams ? pid : kGlobalStream];
  // Conservative dirty stamp: every access that may mutate the stream
  // marks it for the next delta checkpoint. Reads over-stamp, which only
  // costs delta bytes, never correctness.
  s.dirty_stamp = ++mutation_epoch_;
  return s;
}

void ReferenceStreams::OpenAdd(Stream& s, FileId file) {
  const auto it = std::lower_bound(s.open_files.begin(), s.open_files.end(), file);
  if (it == s.open_files.end() || *it != file) {
    s.open_files.insert(it, file);
  }
}

void ReferenceStreams::OpenRemove(Stream& s, FileId file) {
  const auto it = std::lower_bound(s.open_files.begin(), s.open_files.end(), file);
  if (it != s.open_files.end() && *it == file) {
    s.open_files.erase(it);
  }
}

void ReferenceStreams::PruneWindow(Stream& s) {
  const uint64_t horizon = static_cast<uint64_t>(params_.distance_horizon);
  while (!s.window.empty()) {
    const WindowRing::Entry& e = s.window.front();
    const FileState* st = s.files.Find(e.file);
    const bool stale = st == nullptr || st->last_open_index != e.idx;
    const bool expired = e.idx + horizon < s.open_counter;
    if (stale) {
      s.window.pop_front();
      continue;
    }
    if (!expired) {
      break;
    }
    // A file that is still open stays semantically at distance 0 to
    // everything; it is tracked via open_nesting and its state survives the
    // window (see EndOn's compensation).
    if (st->open_nesting == 0) {
      s.files.Erase(e.file);
    }
    s.window.pop_front();
  }
}

void ReferenceStreams::Reference(Stream& s, FileId file, Time time, bool keep_open,
                                 std::vector<DistanceObservation>* out) {
  const uint64_t idx = ++s.open_counter;
  const uint64_t ref = ++s.ref_counter;
  const double horizon = static_cast<double>(params_.distance_horizon);

  // Evict entries that fell outside the horizon BEFORE collecting
  // observations: only files within the last M opens may update
  // (Section 3.1.3).
  PruneWindow(s);

  std::vector<DistanceObservation>& obs = *out;

  // Distance-0 sources: files currently held open (lifetime measure only).
  // These may not have window entries any more, so the open set is tracked
  // separately — and kept sorted, so emission order is ascending FileId no
  // matter what the hash layout looks like (live and snapshot-restored
  // streams emit identically).
  if (params_.distance_kind == DistanceKind::kLifetime) {
    for (const FileId from : s.open_files) {
      if (from != file) {
        obs.push_back({from, file, 0.0});
      }
    }
  }

  s.window.ForEach([&](FileId from, uint64_t from_idx) {
    if (from == file) {
      return;
    }
    const FileState* st = s.files.Find(from);
    if (st == nullptr || st->last_open_index != from_idx) {
      return;  // superseded by a later open of the same file
    }
    double d = 0.0;
    switch (params_.distance_kind) {
      case DistanceKind::kLifetime: {
        if (st->open_nesting > 0) {
          return;  // already emitted above
        }
        d = st->compensated ? horizon : static_cast<double>(idx - st->last_open_index);
        break;
      }
      case DistanceKind::kSequence: {
        d = static_cast<double>(ref - st->last_ref_index) - 1.0;
        break;
      }
      case DistanceKind::kTemporal: {
        d = static_cast<double>(time - st->last_open_time) /
            static_cast<double>(kMicrosPerSecond);
        break;
      }
    }
    const double cap = params_.distance_kind == DistanceKind::kTemporal
                           ? params_.temporal_horizon_seconds
                           : horizon;
    obs.push_back({from, file, std::min(d, cap)});
  });

  FileState& st = s.files.InsertOrGet(file);
  st.last_open_index = idx;
  st.last_ref_index = ref;
  st.last_open_time = time;
  st.compensated = false;
  if (keep_open) {
    if (st.open_nesting == 0) {
      OpenAdd(s, file);
    }
    ++st.open_nesting;
  }
  s.window.push_back(file, idx);
  PruneWindow(s);
}

void ReferenceStreams::OnBegin(Pid pid, FileId file, Time time,
                               std::vector<DistanceObservation>* out) {
  Reference(GetStream(pid), file, time, /*keep_open=*/true, out);
}

void ReferenceStreams::OnPoint(Pid pid, FileId file, Time time,
                               std::vector<DistanceObservation>* out) {
  Reference(GetStream(pid), file, time, /*keep_open=*/false, out);
}

void ReferenceStreams::OnEnd(Pid pid, FileId file) { EndOn(GetStream(pid), file); }

void ReferenceStreams::EndOn(Stream& s, FileId file) {
  FileState* st = s.files.FindMutable(file);
  if (st == nullptr || st->open_nesting == 0) {
    return;  // close of a reference we never saw open — ignore
  }
  --st->open_nesting;
  if (st->open_nesting > 0) {
    return;
  }
  OpenRemove(s, file);
  const uint64_t horizon = static_cast<uint64_t>(params_.distance_horizon);
  if (s.open_counter - st->last_open_index > horizon) {
    // The open happened more than M opens ago: any true distance from it
    // would exceed M. Re-stamp the file at the close point with the
    // `compensated` flag so later references see exactly M — the paper's
    // compensation insertion (Section 3.1.3).
    st->last_open_index = s.open_counter;
    st->compensated = true;
    s.window.push_back(file, st->last_open_index);
  }
}

void ReferenceStreams::OnFork(Pid parent, Pid child) {
  if (!params_.per_process_streams || parent == child) {
    return;
  }
  const auto it = streams_.find(parent);
  if (it == streams_.end()) {
    return;
  }
  // The child inherits a copy of the parent's reference history
  // (Section 4.7) — but begins with nothing held open, since descriptors
  // are not shared in our substrate.
  Stream copy = it->second;
  copy.parent = parent;
  copy.files.ForEach([](FileId, FileState& state) { state.open_nesting = 0; });
  copy.open_files.clear();
  copy.dirty_stamp = ++mutation_epoch_;
  streams_[child] = std::move(copy);
}

void ReferenceStreams::OnExit(Pid pid) {
  if (!params_.per_process_streams) {
    return;
  }
  const auto it = streams_.find(pid);
  if (it == streams_.end()) {
    return;
  }
  Stream child = std::move(it->second);
  streams_.erase(it);
  removals_.push_back({++mutation_epoch_, pid});

  const auto parent_it = streams_.find(child.parent);
  if (parent_it == streams_.end()) {
    return;
  }
  Stream& parent = parent_it->second;
  parent.dirty_stamp = ++mutation_epoch_;

  // Merge: the child's recent history is replayed quietly into the parent
  // so future parent references can relate to the child's files
  // (Section 4.7). No observations are generated here — child-internal
  // pairs were already measured inside the child's own stream.
  child.window.ForEach([&](FileId file, uint64_t idx) {
    const FileState* cst = child.files.Find(file);
    if (cst == nullptr || cst->last_open_index != idx) {
      return;
    }
    FileState& pst = parent.files.InsertOrGet(file);
    if (pst.open_nesting > 0) {
      return;  // the parent itself holds it open; keep that state
    }
    pst.last_open_index = ++parent.open_counter;
    pst.last_ref_index = ++parent.ref_counter;
    pst.last_open_time = cst->last_open_time;
    pst.open_nesting = 0;
    pst.compensated = false;
    parent.window.push_back(file, pst.last_open_index);
  });
  PruneWindow(parent);
}

ReferenceStreams::ExportedStream ReferenceStreams::ExportOne(Pid pid, const Stream& s) {
  ExportedStream e;
  e.pid = pid;
  e.parent = s.parent;
  e.open_counter = s.open_counter;
  e.ref_counter = s.ref_counter;
  e.files.reserve(s.files.size());
  s.files.ForEach([&](FileId file, const FileState& st) {
    e.files.push_back({file, st.last_open_index, st.last_ref_index, st.last_open_time,
                       st.open_nesting, st.compensated});
  });
  std::sort(e.files.begin(), e.files.end(),
            [](const ExportedFileState& a, const ExportedFileState& b) {
              return a.file < b.file;
            });
  e.window.reserve(s.window.size());
  s.window.ForEach([&](FileId file, uint64_t idx) { e.window.emplace_back(file, idx); });
  return e;
}

std::vector<ReferenceStreams::ExportedStream> ReferenceStreams::Export() const {
  std::vector<ExportedStream> out;
  out.reserve(streams_.size());
  for (const auto& [pid, s] : streams_) {
    out.push_back(ExportOne(pid, s));
  }
  std::sort(out.begin(), out.end(),
            [](const ExportedStream& a, const ExportedStream& b) { return a.pid < b.pid; });
  return out;
}

std::vector<ReferenceStreams::ExportedStream> ReferenceStreams::ExportDirtySince(
    uint64_t epoch) const {
  std::vector<ExportedStream> out;
  for (const auto& [pid, s] : streams_) {
    if (s.dirty_stamp > epoch) {
      out.push_back(ExportOne(pid, s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ExportedStream& a, const ExportedStream& b) { return a.pid < b.pid; });
  return out;
}

std::vector<Pid> ReferenceStreams::RemovedSince(uint64_t epoch) const {
  std::vector<Pid> out;
  for (const auto& [at, pid] : removals_) {
    if (at > epoch) {
      out.push_back(pid);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void ReferenceStreams::TrimRemovalLog(uint64_t epoch) {
  // Append-ordered by epoch: drop the committed prefix.
  size_t keep = 0;
  while (keep < removals_.size() && removals_[keep].first <= epoch) {
    ++keep;
  }
  removals_.erase(removals_.begin(), removals_.begin() + keep);
}

void ReferenceStreams::Restore(const std::vector<ExportedStream>& streams) {
  streams_.clear();
  removals_.clear();
  mutation_epoch_ = 0;
  for (const ExportedStream& e : streams) {
    Stream& s = streams_[e.pid];
    s.parent = e.parent;
    s.open_counter = e.open_counter;
    s.ref_counter = e.ref_counter;
    for (const ExportedFileState& f : e.files) {
      s.files.InsertOrGet(f.file) = {f.last_open_index, f.last_ref_index, f.last_open_time,
                                     f.open_nesting, f.compensated};
      if (f.open_nesting > 0) {
        s.open_files.push_back(f.file);  // e.files is sorted, so this stays sorted
      }
    }
    for (const auto& [file, idx] : e.window) {
      s.window.push_back(file, idx);
    }
  }
}

size_t ReferenceStreams::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& [pid, s] : streams_) {
    bytes += sizeof(Stream);
    bytes += s.files.MemoryBytes();
    bytes += s.window.MemoryBytes();
    bytes += s.open_files.capacity() * sizeof(FileId);
  }
  return bytes;
}

}  // namespace seer
