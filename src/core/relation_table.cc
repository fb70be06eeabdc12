#include "src/core/relation_table.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace seer {

namespace {

// A mean-cache stamp no real ordinal can take: freshly sized or restored
// slots start invalid without the hot path ever storing a sentinel value.
constexpr uint64_t kMeanStampInvalid = UINT64_MAX;

// SplitMix64 finalizer: the stateless tie-break mixer.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

double Neighbor::MeanDistance(MeanKind kind) const {
  if (observations == 0) {
    return 0.0;
  }
  if (kind == MeanKind::kArithmetic) {
    return linear_sum / static_cast<double>(observations);
  }
  return std::exp(log_sum / static_cast<double>(observations));
}

RelationTable::RelationTable(const SeerParams& params, const FileTable* files, uint64_t seed)
    : params_(params), files_(files), cap_(params.max_neighbors), rng_(seed) {
  RefreshTieKey();
}

void RelationTable::RefreshTieKey() {
  uint64_t s[4];
  rng_.GetState(s);
  tie_key_ = Mix64(s[0] ^ Mix64(s[1] ^ Mix64(s[2] ^ Mix64(s[3]))));
}

uint64_t RelationTable::TieDraw(uint64_t ordinal, uint32_t slot) const {
  return Mix64(tie_key_ ^ (ordinal * 0x9e3779b97f4a7c15ULL) ^
               (static_cast<uint64_t>(slot) << 32));
}

void RelationTable::EnsureSize(FileId id) {
  if (nb_count_.size() <= id) {
    const size_t files = static_cast<size_t>(id) + 1;
    nb_count_.resize(files, 0);
    reverse_.resize(files);
    stripe_stamp_.resize((files + kStripeSize - 1) >> kStripeShift, 0);
    const size_t slots = files * static_cast<size_t>(cap_);
    nb_id_.resize(slots, kInvalidFileId);
    nb_log_.resize(slots, 0.0);
    nb_lin_.resize(slots, 0.0);
    nb_obs_.resize(slots, 0);
    nb_upd_.resize(slots, 0);
    nb_mean_.resize(slots, 0.0);
    nb_mean_upd_.resize(slots, kMeanStampInvalid);
  }
}

void RelationTable::StampData(FileId id) {
  stripe_stamp_[id >> kStripeShift] = ++data_epoch_;
}

void RelationTable::RevAdd(FileId owner, FileId neighbor) {
  EnsureSize(neighbor);
  reverse_[neighbor].push_back(owner);
}

void RelationTable::RevRemove(FileId owner, FileId neighbor) {
  if (neighbor >= reverse_.size()) {
    return;
  }
  std::vector<FileId>& rev = reverse_[neighbor];
  for (size_t i = 0; i < rev.size(); ++i) {
    if (rev[i] == owner) {
      rev[i] = rev.back();
      rev.pop_back();
      return;
    }
  }
}

Neighbor RelationTable::MaterializeSlot(size_t slot) const {
  Neighbor nb;
  nb.id = nb_id_[slot];
  nb.log_sum = nb_log_[slot];
  nb.linear_sum = nb_lin_[slot];
  nb.observations = nb_obs_[slot];
  nb.last_update = nb_upd_[slot];
  return nb;
}

double RelationTable::MeanOfSlot(size_t slot) const {
  const uint32_t obs = nb_obs_[slot];
  if (obs == 0) {
    return 0.0;
  }
  if (params_.mean_kind == MeanKind::kArithmetic) {
    return nb_lin_[slot] / static_cast<double>(obs);
  }
  return std::exp(nb_log_[slot] / static_cast<double>(obs));
}

double RelationTable::CachedMean(size_t slot) {
  if (nb_mean_upd_[slot] != nb_upd_[slot]) {
    nb_mean_[slot] = MeanOfSlot(slot);
    nb_mean_upd_[slot] = nb_upd_[slot];
  }
  return nb_mean_[slot];
}

void RelationTable::WriteCandidate(size_t slot, FileId to, double cand_log, double distance,
                                   uint64_t ordinal) {
  nb_id_[slot] = to;
  nb_log_[slot] = cand_log;
  nb_lin_[slot] = distance;
  nb_obs_[slot] = 1;
  // The fresh ordinal can never match the slot's mean stamp, so the cache
  // line is invalid without an extra store.
  nb_upd_[slot] = ordinal;
}

int32_t RelationTable::FindSlot(FileId from, FileId to) const {
  if (from >= nb_count_.size()) {
    return -1;
  }
  const size_t base = static_cast<size_t>(from) * cap_;
  const uint32_t count = nb_count_[from];
  for (uint32_t i = 0; i < count; ++i) {
    if (nb_id_[base + i] == to) {
      return static_cast<int32_t>(i);
    }
  }
  return -1;
}

void RelationTable::NoteStructure(FileId from, FileId removed, FileId added) {
  if (removed != kInvalidFileId) {
    RevRemove(from, removed);
  }
  RevAdd(from, added);
  StampData(from);
}

void RelationTable::Observe(FileId from, FileId to, double distance) {
  if (from == to) {
    return;
  }
  EnsureSize(from);
  const uint64_t ordinal = ++update_count_;
  const double floored =
      distance > 0.0 ? distance : params_.geometric_zero_floor;
  const size_t base = static_cast<size_t>(from) * cap_;
  const uint32_t count = nb_count_[from];
  const FileId* ids = nb_id_.data() + base;

  // Existing entry: fold in the new observation. The membership scan is
  // blocked: branchless selects inside each 8-wide block (-O3 turns them
  // into vector compares over the contiguous id stripe) with one
  // well-predicted exit test per block, so an early hit doesn't pay for
  // the whole stripe. Ids are unique within a list, so any match is the
  // only match.
  int32_t slot = -1;
  {
    uint32_t i = 0;
    for (; i + 8 <= count; i += 8) {
      int32_t block_hit = -1;
      for (uint32_t j = 0; j < 8; ++j) {
        block_hit = ids[i + j] == to ? static_cast<int32_t>(i + j) : block_hit;
      }
      if (block_hit >= 0) {
        slot = block_hit;
        break;
      }
    }
    if (slot < 0) {
      for (; i < count; ++i) {
        slot = ids[i] == to ? static_cast<int32_t>(i) : slot;
      }
    }
  }
  if (slot >= 0) {
    const size_t s = base + static_cast<size_t>(slot);
    nb_log_[s] += std::log(floored);
    nb_lin_[s] += distance;
    ++nb_obs_[s];
    // The new ordinal outruns the slot's mean stamp, so the cache line
    // goes stale with no extra store (see CachedMean).
    nb_upd_[s] = ordinal;
    StampData(from);
    return;
  }

  const double cand_log = std::log(floored);

  if (count < static_cast<uint32_t>(cap_)) {
    WriteCandidate(base + count, to, cand_log, distance, ordinal);
    nb_count_[from] = count + 1;
    NoteStructure(from, kInvalidFileId, to);
    return;
  }
  if (count == 0) {
    return;  // cap of zero: nothing to track
  }

  // Replacement priority 1: the first neighbor marked for deletion. One
  // packed liveness byte per id (not a FileRecord load); the backward
  // select keeps first-match semantics branch-free.
  const uint8_t* flags = files_->liveness_flags();
  int32_t dead = -1;
  for (uint32_t i = count; i > 0; --i) {
    dead = (flags[ids[i - 1]] & FileTable::kFlagDeleted) ? static_cast<int32_t>(i - 1) : dead;
  }
  if (dead >= 0) {
    const FileId removed = ids[dead];
    WriteCandidate(base + static_cast<size_t>(dead), to, cand_log, distance, ordinal);
    NoteStructure(from, removed, to);
    return;
  }

  // Priority 2: the entry with the largest mean distance (random
  // tie-break), replaced only when it is farther than the candidate.
  // Pass one refreshes stale mean-cache lines (arithmetic only for entries
  // whose accumulators changed); pass two is a branchless max over the
  // contiguous mean stripe; pass three applies the reservoir tie-break to
  // the (rare) slots holding the maximum.
  for (uint32_t i = 0; i < count; ++i) {
    const size_t s = base + i;
    if (nb_mean_upd_[s] != nb_upd_[s]) {
      nb_mean_[s] = MeanOfSlot(s);
      nb_mean_upd_[s] = nb_upd_[s];
    }
  }
  const double* means = nb_mean_.data() + base;
  double worst_dist = means[0];
  for (uint32_t i = 1; i < count; ++i) {
    worst_dist = means[i] > worst_dist ? means[i] : worst_dist;
  }
  uint32_t worst = 0;
  size_t ties = 0;
  for (uint32_t i = 0; i < count; ++i) {
    if (means[i] == worst_dist) {
      ++ties;
      if (ties == 1) {
        worst = i;
      } else if (TieDraw(ordinal, i) % ties == 0) {
        worst = i;
      }
    }
  }
  const double candidate_dist = params_.mean_kind == MeanKind::kArithmetic
                                    ? distance / 1.0
                                    : std::exp(cand_log / 1.0);
  if (worst_dist > candidate_dist) {
    const FileId removed = ids[worst];
    WriteCandidate(base + worst, to, cand_log, distance, ordinal);
    NoteStructure(from, removed, to);
    return;
  }

  // Priority 3: aging — a very old, inactive entry yields to fresh data so
  // the table can track changes in user behaviour and shed incorrectly
  // inferred relationships (Section 3.1.3). Branchless min over the
  // contiguous update-ordinal stripe.
  const uint64_t* upds = nb_upd_.data() + base;
  uint32_t oldest = 0;
  uint64_t oldest_update = upds[0];
  for (uint32_t i = 1; i < count; ++i) {
    const bool older = upds[i] < oldest_update;
    oldest = older ? i : oldest;
    oldest_update = older ? upds[i] : oldest_update;
  }
  if (ordinal - oldest_update > params_.aging_updates) {
    const FileId removed = ids[oldest];
    WriteCandidate(base + oldest, to, cand_log, distance, ordinal);
    NoteStructure(from, removed, to);
  }
}

RelationTable::NeighborRange RelationTable::NeighborsOf(FileId from) const {
  if (from >= nb_count_.size()) {
    return NeighborRange(this, 0, 0);
  }
  return NeighborRange(this, static_cast<size_t>(from) * cap_, nb_count_[from]);
}

std::vector<FileId> RelationTable::LiveNeighborIds(FileId from) const {
  std::vector<FileId> out;
  LiveNeighborIds(from, &out);
  return out;
}

void RelationTable::LiveNeighborIds(FileId from, std::vector<FileId>* out) const {
  if (from >= nb_count_.size()) {
    return;
  }
  const size_t base = static_cast<size_t>(from) * cap_;
  const uint32_t count = nb_count_[from];
  // One packed liveness byte per neighbor (zero means live), not a whole
  // FileRecord: the scan is a contiguous id-stripe walk plus a byte-array
  // gather, the dominant loop of cluster input refresh.
  const uint8_t* flags = files_->liveness_flags();
  const FileId* ids = nb_id_.data() + base;
  for (uint32_t i = 0; i < count; ++i) {
    const FileId id = ids[i];
    if (flags[id] == 0) {
      out->push_back(id);
    }
  }
}

double RelationTable::DistanceOrNegative(FileId from, FileId to) const {
  const int32_t slot = FindSlot(from, to);
  if (slot < 0) {
    return -1.0;
  }
  return MeanOfSlot(static_cast<size_t>(from) * cap_ + static_cast<size_t>(slot));
}

void RelationTable::Purge(FileId id) {
  if (id >= nb_count_.size()) {
    return;
  }
  // Our own list: unregister from every neighbor's reverse entry.
  const size_t base = static_cast<size_t>(id) * cap_;
  if (nb_count_[id] > 0) {
    const uint32_t count = nb_count_[id];
    for (uint32_t i = 0; i < count; ++i) {
      RevRemove(id, nb_id_[base + i]);
    }
    nb_count_[id] = 0;
    StampData(id);
  }
  // Every list naming us, found via the reverse index.
  std::vector<FileId>& rev = reverse_[id];
  for (size_t r = 0; r < rev.size(); ++r) {
    const FileId owner = rev[r];
    const size_t obase = static_cast<size_t>(owner) * cap_;
    const uint32_t ocount = nb_count_[owner];
    for (uint32_t i = 0; i < ocount; ++i) {
      if (nb_id_[obase + i] == id) {
        // Swap-remove: move the last live entry (and its cache line) down.
        const uint32_t last = ocount - 1;
        if (i != last) {
          nb_id_[obase + i] = nb_id_[obase + last];
          nb_log_[obase + i] = nb_log_[obase + last];
          nb_lin_[obase + i] = nb_lin_[obase + last];
          nb_obs_[obase + i] = nb_obs_[obase + last];
          nb_upd_[obase + i] = nb_upd_[obase + last];
          nb_mean_[obase + i] = nb_mean_[obase + last];
          nb_mean_upd_[obase + i] = nb_mean_upd_[obase + last];
        }
        nb_count_[owner] = last;
        StampData(owner);
        break;
      }
    }
  }
  rev.clear();
}

void RelationTable::CopyStripes(bool full, uint64_t since_epoch, size_t file_count,
                                std::vector<RelationStripeCopy>* out) const {
  if (file_count == 0) {
    return;
  }
  const size_t known = nb_count_.size();
  const uint32_t stripes =
      static_cast<uint32_t>((file_count + kStripeSize - 1) >> kStripeShift);
  for (uint32_t sx = 0; sx < stripes; ++sx) {
    const size_t begin = static_cast<size_t>(sx) << kStripeShift;
    const size_t end = std::min(begin + kStripeSize, file_count);
    const uint64_t stamp = sx < stripe_stamp_.size() ? stripe_stamp_[sx] : 0;
    if (full) {
      // A reader treats an absent stripe as all-empty, so skip stripes
      // with no live entry at all.
      bool any = false;
      for (size_t f = begin; f < end && !any; ++f) {
        any = f < known && nb_count_[f] > 0;
      }
      if (!any) {
        continue;
      }
    } else if (stamp <= since_epoch) {
      continue;  // untouched since the cut: base stripe is still exact
    }
    RelationStripeCopy copy;
    copy.index = sx;
    copy.begin = static_cast<uint32_t>(begin);
    copy.files = static_cast<uint32_t>(end - begin);
    copy.counts.resize(copy.files, 0);
    // Pack only the live prefix of every file's slot range; the slab's
    // reserved-but-dead capacity never gets touched, so a seal costs
    // O(live entries), not O(files * cap).
    size_t live = 0;
    const size_t seen_end = std::min(end, known);
    for (size_t f = begin; f < seen_end; ++f) {
      copy.counts[f - begin] = nb_count_[f];
      live += nb_count_[f];
    }
    copy.ids.resize(live);
    copy.logs.resize(live);
    copy.lins.resize(live);
    copy.obs.resize(live);
    copy.upds.resize(live);
    size_t dst = 0;
    for (size_t f = begin; f < seen_end; ++f) {
      const uint32_t count = nb_count_[f];
      const size_t src = f * static_cast<size_t>(cap_);
      std::copy_n(nb_id_.begin() + src, count, copy.ids.begin() + dst);
      std::copy_n(nb_log_.begin() + src, count, copy.logs.begin() + dst);
      std::copy_n(nb_lin_.begin() + src, count, copy.lins.begin() + dst);
      std::copy_n(nb_obs_.begin() + src, count, copy.obs.begin() + dst);
      std::copy_n(nb_upd_.begin() + src, count, copy.upds.begin() + dst);
      dst += count;
    }
    out->push_back(std::move(copy));
  }
}

RelationTable::SlabAccess RelationTable::BeginRestore(size_t file_count) {
  if (file_count > 0) {
    EnsureSize(static_cast<FileId>(file_count - 1));
  }
  SlabAccess access;
  access.ids = nb_id_.data();
  access.logs = nb_log_.data();
  access.lins = nb_lin_.data();
  access.obs = nb_obs_.data();
  access.upds = nb_upd_.data();
  access.counts = nb_count_.data();
  access.cap = static_cast<size_t>(cap_);
  return access;
}

void RelationTable::FinishRestore(size_t file_count) {
  for (size_t f = 0; f < file_count; ++f) {
    const uint32_t count = nb_count_[f];
    if (count == 0) {
      continue;
    }
    const size_t base = f * static_cast<size_t>(cap_);
    for (uint32_t i = 0; i < count; ++i) {
      RevAdd(static_cast<FileId>(f), nb_id_[base + i]);
    }
    StampData(static_cast<FileId>(f));
  }
}

size_t RelationTable::MemoryBytes() const {
  size_t bytes = nb_id_.capacity() * sizeof(FileId) + nb_log_.capacity() * sizeof(double) +
                 nb_lin_.capacity() * sizeof(double) + nb_obs_.capacity() * sizeof(uint32_t) +
                 nb_upd_.capacity() * sizeof(uint64_t) + nb_mean_.capacity() * sizeof(double) +
                 nb_mean_upd_.capacity() * sizeof(uint64_t) +
                 nb_count_.capacity() * sizeof(uint32_t) +
                 reverse_.capacity() * sizeof(std::vector<FileId>) +
                 stripe_stamp_.capacity() * sizeof(uint64_t);
  for (const auto& rev : reverse_) {
    bytes += rev.capacity() * sizeof(FileId);
  }
  return bytes;
}

}  // namespace seer
