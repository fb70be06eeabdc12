#include "src/core/file_table.h"

namespace seer {

namespace {

size_t NameLength(PathId path) {
  return path == kInvalidPathId ? 0 : GlobalPaths().PathOf(path).size();
}

}  // namespace

void FileTable::SetPath(FileId id, PathId path) {
  FileRecord& rec = records_[id];
  path_bytes_ -= NameLength(rec.path);
  rec.path = path;
  path_bytes_ += NameLength(path);
}

FileId FileTable::Lookup(PathId path) const {
  return path < by_path_.size() ? by_path_[path] : kInvalidFileId;
}

void FileTable::Bind(PathId path, FileId id) {
  if (path >= by_path_.size()) {
    by_path_.resize(path + 1, kInvalidFileId);
  }
  by_path_[path] = id;
}

FileId FileTable::Intern(PathId path) {
  if (path == kInvalidPathId) {
    return kInvalidFileId;
  }
  const FileId existing = Lookup(path);
  if (existing != kInvalidFileId) {
    FileRecord& rec = records_[existing];
    if (rec.deleted) {
      // Name reuse after deletion: resurrect the record so relationship
      // information built under the old name survives (Section 4.8).
      rec.deleted = false;
      flags_[existing] &= static_cast<uint8_t>(~kFlagDeleted);
      Touch(existing);
    }
    return existing;
  }
  const FileId id = static_cast<FileId>(records_.size());
  records_.emplace_back();
  flags_.push_back(0);
  touch_stamp_.push_back(0);
  SetPath(id, path);
  Bind(path, id);
  Touch(id);
  return id;
}

FileId FileTable::Find(PathId path) const {
  return path == kInvalidPathId ? kInvalidFileId : Lookup(path);
}

FileId FileTable::FindPath(std::string_view path) const {
  return Find(GlobalPaths().Find(path));
}

std::string_view FileTable::PathOf(FileId id) const {
  const PathId path = records_[id].path;
  return path == kInvalidPathId ? std::string_view() : GlobalPaths().PathOf(path);
}

void FileTable::RecordReference(FileId id, Time time, uint64_t seq) {
  FileRecord& rec = records_[id];
  rec.last_ref_time = time;
  rec.last_ref_seq = seq;
  ++rec.ref_count;
  Touch(id);
}

std::vector<FileId> FileTable::MarkDeleted(FileId id, uint64_t delete_delay) {
  FileRecord& rec = records_[id];
  if (!rec.deleted) {
    rec.deleted = true;
    flags_[id] |= kFlagDeleted;
    rec.deleted_at_deletion_count = ++deletion_count_;
    ++deletion_marks_;
    pending_purge_.push_back(id);
    Touch(id);
  }
  // Expire entries whose grace period (measured in total deletions,
  // Section 4.8) has elapsed — and which are still deleted.
  std::vector<FileId> expired;
  while (!pending_purge_.empty()) {
    const FileId head = pending_purge_.front();
    const FileRecord& head_rec = records_[head];
    if (!head_rec.deleted) {
      pending_purge_.pop_front();  // resurrected meanwhile
      continue;
    }
    if (deletion_count_ - head_rec.deleted_at_deletion_count < delete_delay) {
      break;
    }
    expired.push_back(head);
    pending_purge_.pop_front();
  }
  return expired;
}

void FileTable::MarkExcluded(FileId id) {
  records_[id].excluded = true;
  flags_[id] |= kFlagExcluded;
  Touch(id);
}

void FileTable::RenameFile(FileId from, PathId to) {
  FileRecord& rec = records_[from];
  // If the target name already has a record, retire it: the rename
  // replaced that file.
  const FileId existing = Find(to);
  if (existing != kInvalidFileId && existing != from) {
    records_[existing].deleted = true;
    flags_[existing] |= kFlagDeleted;
    ++deletion_marks_;
    SetPath(existing, kInvalidPathId);
    Touch(existing);
  }
  if (rec.path != kInvalidPathId && rec.path < by_path_.size()) {
    by_path_[rec.path] = kInvalidFileId;
  }
  SetPath(from, to);
  Bind(to, from);
  Touch(from);
}

FileId FileTable::RestoreRecord(const FileRecord& record) {
  const FileId id = static_cast<FileId>(records_.size());
  records_.push_back(record);
  path_bytes_ += NameLength(record.path);
  flags_.push_back(static_cast<uint8_t>((record.deleted ? kFlagDeleted : 0) |
                                        (record.excluded ? kFlagExcluded : 0)));
  touch_stamp_.push_back(0);
  if (record.path != kInvalidPathId) {
    Bind(record.path, id);
  }
  Touch(id);
  return id;
}

std::vector<FileId> FileTable::LiveIds() const {
  std::vector<FileId> out;
  out.reserve(records_.size());
  for (FileId id = 0; id < records_.size(); ++id) {
    if (!records_[id].deleted && !records_[id].excluded &&
        records_[id].path != kInvalidPathId) {
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace seer
