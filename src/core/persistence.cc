// Correlator persistence: the v2 sectioned snapshot (layout in
// snapshot_codec.h) is the one on-disk form of a correlator database.
//
// A snapshot captures the COMPLETE learning state — the purge queue
// verbatim, the relation table's tie-break key, and the live reference
// streams — so snapshot + WAL replay reproduces the never-crashed
// correlator bit for bit. Doubles travel as raw IEEE-754 bits; every
// section is CRC-checked and every count, index, and float is validated on
// decode, so a torn or corrupt file is a typed kDataLoss, never a
// half-loaded database.
#include <algorithm>
#include <cmath>
#include <map>

#include "src/core/correlator.h"
#include "src/core/params_io.h"
#include "src/util/bytes.h"
#include "src/util/thread_pool.h"

namespace seer {

using namespace snapshot_internal;  // NOLINT(build/namespaces)

StatusOr<std::unique_ptr<Correlator>> Correlator::DecodeSnapshot(std::string_view bytes) {
  return DecodeSnapshotChain({bytes});
}

std::string Correlator::EncodeSnapshot() const {
  return EncodeSealedSnapshot(SealSnapshot(), nullptr);
}

SealedSnapshot Correlator::SealSnapshot(const SealRequest& req) const {
  SealedSnapshot seal;
  seal.delta = req.delta;
  seal.base_generation = req.base_generation;
  seal.params_text = FormatSeerParams(params_);

  seal.record_path_index.assign(files_.size(), kNoPath);
  seal.records.reserve(files_.size());
  for (FileId id = 0; id < files_.size(); ++id) {
    const FileRecord& rec = files_.Get(id);
    if (rec.path != kInvalidPathId) {
      seal.record_path_index[id] = static_cast<uint32_t>(seal.paths.size());
      seal.paths.emplace_back(GlobalPaths().PathOf(rec.path));
    }
    seal.records.push_back(rec);
  }
  const auto& purge = files_.pending_purge();
  seal.purge_queue.assign(purge.begin(), purge.end());
  seal.deletion_count = files_.deletion_count();
  seal.global_ref_seq = global_ref_seq_;
  seal.references_processed = references_processed_;

  seal.update_count = relations_.update_count();
  relations_.GetRngState(seal.rng_state);
  seal.file_count = files_.size();
  seal.stripe_size = RelationTable::kStripeSize;
  relations_.CopyStripes(/*full=*/!req.delta, req.relation_epoch, files_.size(),
                         &seal.stripes);

  if (req.delta) {
    seal.removed_pids = streams_.RemovedSince(req.stream_epoch);
    seal.streams = streams_.ExportDirtySince(req.stream_epoch);
  } else {
    seal.streams = streams_.Export();
  }
  seal.relation_epoch = relations_.data_epoch();
  seal.stream_epoch = streams_.mutation_epoch();
  return seal;
}

namespace {

// Smallest encodings of the repeated records below: every reserve() is
// capped by how many of them the section's remaining bytes could hold, so
// a CRC-valid but corrupt count cannot allocate before the reads fail.
constexpr size_t kPathBytes = 4;            // u32 length, empty string
constexpr size_t kPurgeBytes = 4;           // u32 file id
constexpr size_t kPidBytes = 4;             // i32 pid
constexpr size_t kStreamBytes = 32;         // header + both zero counts
constexpr size_t kFileStateBytes = 33;      // u32 + 3 x u64 + u32 + u8
constexpr size_t kWindowEntryBytes = 12;    // u32 file + u64 index

// Decodes one v2 STRM payload: pids removed since the base, then full
// copies of the streams touched since it (every stream, for a full
// snapshot).
Status DecodeStreamSection(std::string_view payload, uint64_t file_count,
                           std::vector<Pid>* removed,
                           std::vector<ReferenceStreams::ExportedStream>* upserts) {
  ByteReader r(payload);
  const uint32_t removed_count = r.GetU32();
  removed->reserve(PlausibleCount(removed_count, r.remaining(), kPidBytes));
  for (uint32_t i = 0; i < removed_count; ++i) {
    removed->push_back(r.GetI32());
    if (!r.ok()) {
      return Status::DataLoss("snapshot: truncated streams section");
    }
  }
  const uint32_t stream_count = r.GetU32();
  upserts->reserve(PlausibleCount(stream_count, r.remaining(), kStreamBytes));
  for (uint32_t i = 0; i < stream_count; ++i) {
    ReferenceStreams::ExportedStream s;
    s.pid = r.GetI32();
    s.parent = r.GetI32();
    s.open_counter = r.GetU64();
    s.ref_counter = r.GetU64();
    const uint32_t n_files = r.GetU32();
    if (!r.ok()) {
      return Status::DataLoss("snapshot: truncated streams section");
    }
    s.files.reserve(PlausibleCount(n_files, r.remaining(), kFileStateBytes));
    for (uint32_t f = 0; f < n_files; ++f) {
      ReferenceStreams::ExportedFileState st;
      st.file = r.GetU32();
      st.last_open_index = r.GetU64();
      st.last_ref_index = r.GetU64();
      st.last_open_time = r.GetI64();
      st.open_nesting = r.GetU32();
      st.compensated = r.GetU8() != 0;
      if (!r.ok() || st.file >= file_count) {
        return Status::DataLoss("snapshot: bad stream file state");
      }
      s.files.push_back(st);
    }
    const uint32_t n_window = r.GetU32();
    s.window.reserve(PlausibleCount(n_window, r.remaining(), kWindowEntryBytes));
    for (uint32_t w = 0; w < n_window; ++w) {
      const FileId file = r.GetU32();
      const uint64_t idx = r.GetU64();
      if (!r.ok() || file >= file_count) {
        return Status::DataLoss("snapshot: bad stream window entry");
      }
      s.window.emplace_back(file, idx);
    }
    upserts->push_back(std::move(s));
  }
  if (!r.ok()) {
    return Status::DataLoss("snapshot: truncated streams section");
  }
  return Status::Ok();
}

// Decodes one CRC-verified stripe payload straight into the slab arrays.
// Every write lands inside the stripe's own [begin, end) file range —
// validated before writing — so concurrent stripe decodes never touch the
// same slot.
Status DecodeStripeInPlace(std::string_view payload, uint32_t expect_index,
                           uint32_t stripe_size, uint64_t file_count,
                           const RelationTable::SlabAccess& slab) {
  ByteReader r(payload);
  const uint32_t index = r.GetU32();
  const uint32_t list_count = r.GetU32();
  if (!r.ok() || index != expect_index) {
    return Status::DataLoss("snapshot: stripe section index mismatch");
  }
  const uint64_t begin = static_cast<uint64_t>(index) * stripe_size;
  const uint64_t end = std::min(begin + stripe_size, file_count);
  for (uint32_t l = 0; l < list_count; ++l) {
    const uint32_t from = r.GetU32();
    const uint32_t count = r.GetU32();
    if (!r.ok() || from < begin || from >= end ||
        count > static_cast<uint32_t>(slab.cap)) {
      return Status::DataLoss("snapshot: bad relation list header");
    }
    const size_t base = static_cast<size_t>(from) * slab.cap;
    for (uint32_t i = 0; i < count; ++i) {
      const uint32_t id = r.GetU32();
      const double log_sum = r.GetDouble();
      const double linear_sum = r.GetDouble();
      const uint32_t obs = r.GetU32();
      const uint64_t upd = r.GetU64();
      if (!r.ok() || id >= file_count || !std::isfinite(log_sum) ||
          !std::isfinite(linear_sum)) {
        return Status::DataLoss("snapshot: bad neighbor record");
      }
      slab.ids[base + i] = id;
      slab.logs[base + i] = log_sum;
      slab.lins[base + i] = linear_sum;
      slab.obs[base + i] = obs;
      slab.upds[base + i] = upd;
    }
    slab.counts[from] = count;
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::unique_ptr<Correlator>> Correlator::DecodeSnapshotChain(
    const std::vector<std::string_view>& chain, ThreadPool* pool) {
  if (chain.empty()) {
    return Status::InvalidArgument("snapshot chain: empty");
  }

  struct ParsedFile {
    SnapshotMeta meta;
    const RawSection* params = nullptr;
    const RawSection* paths = nullptr;
    const RawSection* file_table = nullptr;
    const RawSection* rel_head = nullptr;
    const RawSection* streams = nullptr;
  };
  std::vector<std::vector<RawSection>> sections(chain.size());
  std::vector<ParsedFile> parsed(chain.size());
  // Every stripe section across the chain, with the file it came from; the
  // newest file carrying a given stripe index wins.
  struct StripeRef {
    uint32_t index = 0;
    const RawSection* section = nullptr;
  };
  std::vector<StripeRef> all_stripes;

  for (size_t k = 0; k < chain.size(); ++k) {
    SEER_ASSIGN_OR_RETURN(parsed[k].meta, ReadSnapshotMeta(chain[k]));
    if (k == 0 && parsed[k].meta.delta) {
      return Status::DataLoss("snapshot chain: starts with a delta");
    }
    if (k > 0 && !parsed[k].meta.delta) {
      return Status::DataLoss("snapshot chain: full snapshot mid-chain");
    }
    if (parsed[k].meta.stripe_size != parsed[0].meta.stripe_size ||
        parsed[k].meta.stripe_size == 0) {
      return Status::DataLoss("snapshot chain: inconsistent stripe size");
    }
    SEER_ASSIGN_OR_RETURN(sections[k], ParseSections(chain[k]));
    for (const RawSection& s : sections[k]) {
      switch (s.tag) {
        case kTagParams:
          parsed[k].params = &s;
          break;
        case kTagPaths:
          parsed[k].paths = &s;
          break;
        case kTagFiles:
          parsed[k].file_table = &s;
          break;
        case kTagRelHead:
          parsed[k].rel_head = &s;
          break;
        case kTagStreams:
          parsed[k].streams = &s;
          break;
        case kTagStripe: {
          // The stripe index is read before CRC verification (the parallel
          // phase below checks every stripe's CRC, so a corrupt index can
          // only fail the decode, never smuggle data in).
          ByteReader idx_reader(s.payload);
          const uint32_t index = idx_reader.GetU32();
          if (!idx_reader.ok()) {
            return Status::DataLoss("snapshot: truncated stripe section");
          }
          all_stripes.push_back({index, &s});
          break;
        }
        default:
          break;  // META (already parsed), END!, and future sections
      }
    }
    if (parsed[k].params == nullptr || parsed[k].paths == nullptr ||
        parsed[k].file_table == nullptr || parsed[k].rel_head == nullptr ||
        parsed[k].streams == nullptr) {
      return Status::DataLoss("snapshot: missing required section");
    }
  }

  const ParsedFile& newest = parsed.back();
  // Non-stripe sections are decoded from the newest file only (every
  // snapshot, delta included, carries them in full); verify their CRCs
  // here, plus every file's stream section (those fold across the chain).
  SEER_RETURN_IF_ERROR(CheckCrc(*newest.params, 0));
  SEER_RETURN_IF_ERROR(CheckCrc(*newest.paths, 0));
  SEER_RETURN_IF_ERROR(CheckCrc(*newest.file_table, 0));
  SEER_RETURN_IF_ERROR(CheckCrc(*newest.rel_head, 0));
  for (size_t k = 0; k < chain.size(); ++k) {
    SEER_RETURN_IF_ERROR(CheckCrc(*parsed[k].streams, k));
  }

  // --- params ---------------------------------------------------------------
  ByteReader params_reader(newest.params->payload);
  const std::string_view params_text = params_reader.GetString();
  if (!params_reader.ok()) {
    return Status::DataLoss("snapshot: malformed params section");
  }
  const auto params = ParseSeerParams(params_text);
  if (!params.ok()) {
    return Status::DataLoss("snapshot: bad params: " + params.status().message());
  }
  auto correlator = std::make_unique<Correlator>(*params);

  // --- paths ----------------------------------------------------------------
  ByteReader path_reader(newest.paths->payload);
  const uint32_t path_count = path_reader.GetU32();
  std::vector<PathId> path_ids;
  path_ids.reserve(PlausibleCount(path_count, path_reader.remaining(), kPathBytes));
  for (uint32_t i = 0; i < path_count; ++i) {
    const std::string_view p = path_reader.GetString();
    if (!path_reader.ok()) {
      return Status::DataLoss("snapshot: malformed path table");
    }
    path_ids.push_back(GlobalPaths().Intern(p));
  }

  // --- files ----------------------------------------------------------------
  ByteReader file_reader(newest.file_table->payload);
  const uint64_t file_count = file_reader.GetU64();
  const uint64_t deletion_count = file_reader.GetU64();
  correlator->global_ref_seq_ = file_reader.GetU64();
  correlator->references_processed_ = file_reader.GetU64();
  if (file_count != newest.meta.file_count) {
    return Status::DataLoss("snapshot: meta/file-table count mismatch");
  }
  for (uint64_t i = 0; i < file_count; ++i) {
    FileRecord rec;
    const uint32_t path_index = file_reader.GetU32();
    rec.last_ref_time = file_reader.GetI64();
    rec.last_ref_seq = file_reader.GetU64();
    rec.ref_count = file_reader.GetU64();
    const uint8_t flags = file_reader.GetU8();
    rec.deleted_at_deletion_count = file_reader.GetU64();
    if (!file_reader.ok()) {
      return Status::DataLoss("snapshot: truncated file record");
    }
    if (path_index != kNoPath && path_index >= path_ids.size()) {
      return Status::DataLoss("snapshot: file record references unknown path");
    }
    rec.path = path_index == kNoPath ? kInvalidPathId : path_ids[path_index];
    rec.deleted = (flags & 1) != 0;
    rec.excluded = (flags & 2) != 0;
    correlator->files_.RestoreRecord(rec);
  }
  correlator->files_.set_deletion_count(deletion_count);
  const uint32_t purge_count = file_reader.GetU32();
  std::vector<FileId> purge;
  purge.reserve(PlausibleCount(purge_count, file_reader.remaining(), kPurgeBytes));
  for (uint32_t i = 0; i < purge_count; ++i) {
    const FileId id = file_reader.GetU32();
    if (!file_reader.ok() || id >= file_count) {
      return Status::DataLoss("snapshot: bad purge queue entry");
    }
    purge.push_back(id);
  }
  correlator->files_.RestorePurgeQueue(purge);

  // --- relation head --------------------------------------------------------
  ByteReader head_reader(newest.rel_head->payload);
  correlator->relations_.set_update_count(head_reader.GetU64());
  uint64_t rng_state[4];
  for (uint64_t& s : rng_state) {
    s = head_reader.GetU64();
  }
  if (!head_reader.ok()) {
    return Status::DataLoss("snapshot: malformed relation head section");
  }
  correlator->relations_.SetRngState(rng_state);

  // --- relation stripes, in parallel, in place ------------------------------
  // Winner per stripe index: the newest file carrying it. Older copies are
  // masked (their data was superseded); absent stripes are all-empty.
  const uint32_t stripe_size = newest.meta.stripe_size;
  std::vector<const RawSection*> winner_of_index;
  for (const StripeRef& ref : all_stripes) {  // chain order: later wins
    const uint64_t begin = static_cast<uint64_t>(ref.index) * stripe_size;
    if (begin >= file_count) {
      return Status::DataLoss("snapshot: stripe section beyond file count");
    }
    if (winner_of_index.size() <= ref.index) {
      winner_of_index.resize(ref.index + 1, nullptr);
    }
    winner_of_index[ref.index] = ref.section;
  }
  std::vector<StripeRef> winners;
  for (uint32_t index = 0; index < winner_of_index.size(); ++index) {
    if (winner_of_index[index] != nullptr) {
      winners.push_back({index, winner_of_index[index]});
    }
  }

  const RelationTable::SlabAccess slab =
      correlator->relations_.BeginRestore(static_cast<size_t>(file_count));
  std::vector<Status> stripe_status(winners.size());
  const auto decode_one = [&](size_t i) {
    const StripeRef& ref = winners[i];
    Status st = CheckCrc(*ref.section, ref.index);
    if (st.ok()) {
      st = DecodeStripeInPlace(ref.section->payload, ref.index, stripe_size,
                               file_count, slab);
    }
    stripe_status[i] = std::move(st);
  };
  if (pool != nullptr && winners.size() > 1) {
    pool->ParallelChunks(winners.size(), decode_one);
  } else {
    for (size_t i = 0; i < winners.size(); ++i) {
      decode_one(i);
    }
  }
  for (const Status& st : stripe_status) {
    SEER_RETURN_IF_ERROR(st);
  }
  correlator->relations_.FinishRestore(static_cast<size_t>(file_count));

  // --- streams, folded across the chain -------------------------------------
  std::map<Pid, ReferenceStreams::ExportedStream> folded;
  for (size_t k = 0; k < chain.size(); ++k) {
    std::vector<Pid> removed;
    std::vector<ReferenceStreams::ExportedStream> upserts;
    SEER_RETURN_IF_ERROR(DecodeStreamSection(parsed[k].streams->payload, file_count,
                                             &removed, &upserts));
    for (const Pid pid : removed) {
      folded.erase(pid);
    }
    for (auto& s : upserts) {
      folded[s.pid] = std::move(s);
    }
  }
  std::vector<ReferenceStreams::ExportedStream> exported;
  exported.reserve(folded.size());
  for (auto& [pid, s] : folded) {
    exported.push_back(std::move(s));  // std::map iterates pid-ascending
  }
  correlator->streams_.Restore(exported);

  return correlator;
}

}  // namespace seer
