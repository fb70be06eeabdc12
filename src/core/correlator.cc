#include "src/core/correlator.h"

#include <chrono>

namespace seer {

namespace {

inline uint64_t MicrosSince(std::chrono::steady_clock::time_point from) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - from)
                                   .count());
}

}  // namespace

Correlator::Correlator(const SeerParams& params, uint64_t seed)
    : params_(params),
      relations_(params, &files_, seed),
      streams_(params),
      clusters_(params, &files_, &relations_) {
  scratch_obs_.reserve(256);
}

void Correlator::OnReference(const FileReference& ref) {
  ++references_processed_;
  const FileId id = files_.Intern(ref.path);
  if (id == kInvalidFileId) {
    return;
  }
  files_.RecordReference(id, ref.time, ++global_ref_seq_);

  scratch_obs_.clear();
  switch (ref.kind) {
    case RefKind::kBegin:
      streams_.OnBegin(ref.pid, id, ref.time, &scratch_obs_);
      break;
    case RefKind::kEnd:
      streams_.OnEnd(ref.pid, id);
      return;
    case RefKind::kPoint:
      streams_.OnPoint(ref.pid, id, ref.time, &scratch_obs_);
      break;
  }
  // One packed liveness byte per source (zero means live), not a whole
  // FileRecord.
  const uint8_t* flags = files_.liveness_flags();
  for (const DistanceObservation& obs : scratch_obs_) {
    if (flags[obs.from] != 0) {
      continue;
    }
    relations_.Observe(obs.from, obs.to, obs.distance);
  }
}

void Correlator::OverrideTuningParams(const SeerParams& params) {
  SeerParams effective = params;
  effective.max_neighbors = params_.max_neighbors;  // slab geometry is baked
  params_ = effective;
  relations_.OverrideParams(effective);
  streams_.OverrideParams(effective);
  clusters_.OverrideParams(effective);
}

void Correlator::FlushSegment() {
  if (segment_.empty()) {
    return;
  }
  ++ingest_stats_.segments;
  ingest_stats_.refs += segment_.size();

  // Measure: walk each reference's stream in trace order. The file table
  // and the relation table are not touched, so this phase is exactly the
  // stream half of OnReference.
  auto mark = std::chrono::steady_clock::now();
  segment_obs_.clear();
  for (const PendingRef& r : segment_) {
    switch (r.kind) {
      case RefKind::kBegin:
        streams_.OnBegin(r.pid, r.id, r.time, &segment_obs_);
        break;
      case RefKind::kEnd:
        streams_.OnEnd(r.pid, r.id);
        break;
      case RefKind::kPoint:
        streams_.OnPoint(r.pid, r.id, r.time, &segment_obs_);
        break;
    }
  }
  ingest_stats_.measure_us += MicrosSince(mark);

  // Fold in trace order. Liveness is frozen for the whole segment (barriers
  // and would-resurrect references cut segments), so this filter sees the
  // flags OnReference's per-reference filter would have seen.
  mark = std::chrono::steady_clock::now();
  ++ingest_stats_.serial_folds;
  const uint8_t* flags = files_.liveness_flags();
  for (const DistanceObservation& obs : segment_obs_) {
    if (flags[obs.from] != 0) {
      continue;
    }
    relations_.Observe(obs.from, obs.to, obs.distance);
  }
  ingest_stats_.fold_us += MicrosSince(mark);
  segment_.clear();
}

void Correlator::IngestBatch(const IngestEvent* events, size_t count) {
  ++ingest_stats_.batches;
  for (size_t i = 0; i < count; ++i) {
    const IngestEvent& e = events[i];
    if (e.kind == IngestEvent::Kind::kReference) {
      // Segment cut: interning can resurrect a deleted record, flipping the
      // liveness flag that already-pending observations must be filtered
      // against. Flush the segment first so their filter sees the
      // pre-resurrection flag, exactly as serial ingest would.
      if (!segment_.empty()) {
        const FileId existing = files_.Find(e.ref.path);
        if (existing != kInvalidFileId && files_.Get(existing).deleted) {
          FlushSegment();
        }
      }
      ++references_processed_;
      const FileId id = files_.Intern(e.ref.path);
      if (id == kInvalidFileId) {
        continue;
      }
      files_.RecordReference(id, e.ref.time, ++global_ref_seq_);
      segment_.push_back({e.ref.kind, e.ref.pid, id, e.ref.time});
    } else {
      // Barrier: stream topology or liveness changes. Apply after flushing
      // everything pending.
      FlushSegment();
      ++ingest_stats_.barriers;
      switch (e.kind) {
        case IngestEvent::Kind::kFork:
          OnProcessFork(e.parent, e.child);
          break;
        case IngestEvent::Kind::kExit:
          OnProcessExit(e.child);
          break;
        case IngestEvent::Kind::kDeleted:
          OnFileDeleted(e.path, e.time);
          break;
        case IngestEvent::Kind::kRenamed:
          OnFileRenamed(e.path, e.path2, e.time);
          break;
        case IngestEvent::Kind::kExcluded:
          OnFileExcluded(e.path);
          break;
        case IngestEvent::Kind::kReference:
          break;  // unreachable
      }
    }
  }
  FlushSegment();
}

void Correlator::OnProcessFork(Pid parent, Pid child) { streams_.OnFork(parent, child); }

void Correlator::OnProcessExit(Pid pid) { streams_.OnExit(pid); }

void Correlator::OnFileDeleted(PathId path, Time /*time*/) {
  const FileId id = files_.Find(path);
  if (id == kInvalidFileId) {
    return;
  }
  // Deletion is soft; relationship data survives for a grace period in
  // case the name is immediately reused (Section 4.8). Entries whose grace
  // period has now expired are purged for real.
  for (const FileId expired : files_.MarkDeleted(id, params_.delete_delay)) {
    relations_.Purge(expired);
  }
}

void Correlator::OnFileRenamed(PathId from, PathId to, Time /*time*/) {
  const FileId id = files_.Find(from);
  if (id == kInvalidFileId) {
    // Renaming a file we never saw: just intern the new name.
    files_.Intern(to);
    return;
  }
  files_.RenameFile(id, to);
}

void Correlator::OnFileExcluded(PathId path) {
  const FileId id = files_.Find(path);
  if (id == kInvalidFileId) {
    return;
  }
  files_.MarkExcluded(id);
  relations_.Purge(id);
}

void Correlator::AddInvestigator(std::unique_ptr<Investigator> investigator) {
  investigators_.push_back(std::move(investigator));
}

void Correlator::AddInvestigatedRelation(const InvestigatedRelation& relation) {
  std::vector<FileId> ids;
  ids.reserve(relation.files.size());
  for (const auto& path : relation.files) {
    ids.push_back(files_.Intern(GlobalPaths().Intern(path)));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      clusters_.AddInvestigatedPair(ids[i], ids[j], relation.strength);
    }
  }
}

void Correlator::RunInvestigators(const SimFilesystem& fs) {
  if (investigators_.empty()) {
    return;
  }
  clusters_.ClearInvestigatedPairs();
  // A relation may intern a file no earlier round investigated (a header
  // the user never opened), so repeat over the files each round made live
  // until a round adds none. Each shipped investigator judges a file on its
  // own, so the rounds find the relations one pass over the final live set
  // would, and a second call with no event in between changes nothing.
  std::vector<uint8_t> investigated;
  std::vector<FileId> round = files_.LiveIds();
  while (!round.empty()) {
    std::vector<std::string> candidates;
    candidates.reserve(round.size());
    for (const FileId id : round) {
      if (investigated.size() <= id) {
        investigated.resize(id + 1, 0);
      }
      investigated[id] = 1;
      candidates.emplace_back(files_.PathOf(id));
    }
    for (const auto& inv : investigators_) {
      for (const auto& relation : inv->Investigate(fs, candidates)) {
        AddInvestigatedRelation(relation);
      }
    }
    round.clear();
    for (const FileId id : files_.LiveIds()) {
      if (id >= investigated.size() || !investigated[id]) {
        round.push_back(id);
      }
    }
  }
}

ClusterSet Correlator::BuildClusters() const { return clusters_.Build(files_.LiveIds()); }

double Correlator::Distance(const std::string& from, const std::string& to) const {
  const FileId a = files_.FindPath(from);
  const FileId b = files_.FindPath(to);
  if (a == kInvalidFileId || b == kInvalidFileId) {
    return -1.0;
  }
  return relations_.DistanceOrNegative(a, b);
}

std::vector<std::string> Correlator::NeighborPaths(const std::string& path) const {
  std::vector<std::string> out;
  const FileId id = files_.FindPath(path);
  if (id == kInvalidFileId) {
    return out;
  }
  std::vector<FileId> ids;
  ids.reserve(relations_.max_neighbors());
  relations_.LiveNeighborIds(id, &ids);
  for (const FileId nb : ids) {
    out.emplace_back(files_.PathOf(nb));
  }
  return out;
}

size_t Correlator::MemoryBytes() const {
  return relations_.MemoryBytes() + streams_.MemoryBytes() +
         files_.size() * sizeof(FileRecord) + files_.path_bytes();
}

}  // namespace seer
