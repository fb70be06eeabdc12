// Namespace churn through the interner (Section 4.8): rename, delete with
// delayed purge, exclusion, and name reuse must leave the relation table in
// the state the paper prescribes — rename and temporary deletion preserve
// relationship data; purge expiry and exclusion destroy it.
#include <string>

#include <gtest/gtest.h>

#include "src/core/correlator.h"
#include "src/core/file_table.h"

namespace seer {
namespace {

PathId P(std::string_view path) { return GlobalPaths().Intern(path); }

FileReference Ref(Pid pid, RefKind kind, std::string_view path, Time time) {
  FileReference r;
  r.pid = pid;
  r.kind = kind;
  r.path = P(path);
  r.time = time;
  return r;
}

// Establishes a relation between `a` and `b` in one process stream.
void Relate(Correlator* correlator, const std::string& a, const std::string& b,
            Time* t, int passes = 4) {
  for (int i = 0; i < passes; ++i) {
    correlator->OnReference(Ref(1, RefKind::kPoint, a, *t += kMicrosPerSecond));
    correlator->OnReference(Ref(1, RefKind::kPoint, b, *t += kMicrosPerSecond));
  }
}

// Rename keeps relationship data under the new name; the old spelling,
// referenced afterwards, is a brand-new file — not an alias of the moved
// one (the id re-binding must not leave the old PathId pointing anywhere).
TEST(NamespaceChurn, RenameThenRereferenceOldNameIsAFreshFile) {
  Correlator correlator;
  Time t = 0;
  Relate(&correlator, "/churn/orig", "/churn/partner", &t);
  const double before = correlator.Distance("/churn/orig", "/churn/partner");
  ASSERT_GE(before, 0.0);
  const FileId moved_id = correlator.files().FindPath("/churn/orig");

  correlator.OnFileRenamed(P("/churn/orig"), P("/churn/moved"), t += kMicrosPerSecond);

  // Relations survive under the new name, attached to the same FileId.
  EXPECT_EQ(correlator.files().FindPath("/churn/moved"), moved_id);
  EXPECT_DOUBLE_EQ(correlator.Distance("/churn/moved", "/churn/partner"), before);
  EXPECT_EQ(correlator.files().FindPath("/churn/orig"), kInvalidFileId);

  // A new file created at the old spelling starts from scratch.
  correlator.OnReference(Ref(2, RefKind::kPoint, "/churn/orig", t += kMicrosPerSecond));
  const FileId reborn = correlator.files().FindPath("/churn/orig");
  ASSERT_NE(reborn, kInvalidFileId);
  EXPECT_NE(reborn, moved_id);
  EXPECT_TRUE(correlator.relations().NeighborsOf(reborn).empty());
  // And the moved file is untouched by the newcomer.
  EXPECT_DOUBLE_EQ(correlator.Distance("/churn/moved", "/churn/partner"), before);
}

// Deletion is soft for `delete_delay` subsequent deletions: a name reused
// within the window resurrects the record with its relations intact; once
// the window expires the relations are purged for real.
TEST(NamespaceChurn, DeletePurgesOnlyAfterDelay) {
  SeerParams params;
  params.delete_delay = 2;
  Correlator correlator(params);
  Time t = 0;
  Relate(&correlator, "/del/victim", "/del/partner", &t);
  ASSERT_GE(correlator.Distance("/del/victim", "/del/partner"), 0.0);

  correlator.OnFileDeleted(P("/del/victim"), t += kMicrosPerSecond);
  // Grace period: relationship data still present (the name may be reused).
  EXPECT_GE(correlator.Distance("/del/victim", "/del/partner"), 0.0);

  // Two unrelated deletions expire the grace period.
  correlator.OnReference(Ref(1, RefKind::kPoint, "/del/x1", t += kMicrosPerSecond));
  correlator.OnFileDeleted(P("/del/x1"), t += kMicrosPerSecond);
  correlator.OnReference(Ref(1, RefKind::kPoint, "/del/x2", t += kMicrosPerSecond));
  correlator.OnFileDeleted(P("/del/x2"), t += kMicrosPerSecond);

  EXPECT_LT(correlator.Distance("/del/victim", "/del/partner"), 0.0)
      << "expired delete must purge the relation table";
}

TEST(NamespaceChurn, NameReuseWithinDelayResurrectsRelations) {
  SeerParams params;
  params.delete_delay = 4;
  Correlator correlator(params);
  Time t = 0;
  Relate(&correlator, "/reuse/f", "/reuse/partner", &t);
  const double before = correlator.Distance("/reuse/f", "/reuse/partner");
  ASSERT_GE(before, 0.0);

  correlator.OnFileDeleted(P("/reuse/f"), t += kMicrosPerSecond);
  // The editor-style delete/recreate cycle: the same name comes right back.
  correlator.OnReference(Ref(1, RefKind::kPoint, "/reuse/f", t += kMicrosPerSecond));

  const FileId id = correlator.files().FindPath("/reuse/f");
  ASSERT_NE(id, kInvalidFileId);
  EXPECT_FALSE(correlator.files().Get(id).deleted);
  EXPECT_DOUBLE_EQ(correlator.Distance("/reuse/f", "/reuse/partner"), before)
      << "recreation within the delay must keep the old relations (Section 4.8)";
}

// Exclusion (frequently-referenced files, Section 4.2) removes the file
// from the distance machinery immediately and keeps it out afterwards.
TEST(NamespaceChurn, ExclusionPurgesAndStays) {
  Correlator correlator;
  Time t = 0;
  Relate(&correlator, "/ex/libc.so", "/ex/app", &t);
  ASSERT_GE(correlator.Distance("/ex/libc.so", "/ex/app"), 0.0);

  correlator.OnFileExcluded(P("/ex/libc.so"));
  EXPECT_LT(correlator.Distance("/ex/libc.so", "/ex/app"), 0.0);

  // Further references to the excluded file do not rebuild relations.
  Relate(&correlator, "/ex/libc.so", "/ex/app", &t);
  const FileId id = correlator.files().FindPath("/ex/libc.so");
  ASSERT_NE(id, kInvalidFileId);
  EXPECT_TRUE(correlator.files().Get(id).excluded);
  EXPECT_TRUE(correlator.relations().NeighborsOf(id).empty());
  // Excluded files never appear in clustering candidates.
  for (const FileId live : correlator.files().LiveIds()) {
    EXPECT_NE(live, id);
  }
}

// Renaming a file while it is an open (kBegin) reference: the per-process
// stream tracks the FileId, so the open survives the rename — references
// made while it is still open observe distance 0, and the close arrives
// under the new name.
TEST(NamespaceChurn, RenameOfOpenFileKeepsLifetimeAndRelations) {
  Correlator correlator;
  Time t = 0;
  correlator.OnReference(Ref(1, RefKind::kBegin, "/open/src.c", t += kMicrosPerSecond));
  correlator.OnFileRenamed(P("/open/src.c"), P("/open/src_v2.c"), t += kMicrosPerSecond);

  // Still open across the rename: a new reference in the same process sees
  // the file at lifetime distance 0.
  correlator.OnReference(Ref(1, RefKind::kPoint, "/open/header.h", t += kMicrosPerSecond));
  // The observation is distance 0 (file still open); the relation table
  // stores zeros at its geometric floor, strictly below any closed-file
  // observation (which is at least 1 intervening open).
  const double while_open = correlator.Distance("/open/src_v2.c", "/open/header.h");
  ASSERT_GE(while_open, 0.0);
  EXPECT_LT(while_open, 1.0);

  // The close arrives under the new name and lands on the same lifetime.
  correlator.OnReference(Ref(1, RefKind::kEnd, "/open/src_v2.c", t += kMicrosPerSecond));

  // Closed now: the next reference sees a positive distance, proving the
  // kEnd reached the original open's stream entry.
  correlator.OnReference(Ref(1, RefKind::kPoint, "/open/other.h", t += kMicrosPerSecond));
  const double after_close = correlator.Distance("/open/src_v2.c", "/open/other.h");
  ASSERT_GE(after_close, 0.0);
  EXPECT_GT(after_close, 0.0);
}

// The table keeps the total length of its records' names as they are bound
// and re-bound, so Correlator::MemoryBytes() needs no interner lookup per
// file. After each kind of churn the running total must equal a fresh walk.
TEST(FileTable, PathBytesMatchAFreshWalkUnderChurn) {
  FileTable files;
  const auto walk = [&files] {
    uint64_t bytes = 0;
    for (FileId id = 0; id < files.size(); ++id) {
      bytes += files.PathOf(id).size();
    }
    return bytes;
  };
  EXPECT_EQ(0u, files.path_bytes());

  const FileId a = files.Intern(P("/bytes/a.c"));
  const FileId b = files.Intern(P("/bytes/bb.h"));
  files.Intern(P("/bytes/ccc.o"));
  EXPECT_EQ(walk(), files.path_bytes()) << "insert";

  files.RenameFile(a, P("/bytes/a_renamed_longer.c"));
  EXPECT_EQ(walk(), files.path_bytes()) << "rename";

  // Rename over an existing name retires the replaced record's name.
  files.RenameFile(b, P("/bytes/ccc.o"));
  EXPECT_EQ(walk(), files.path_bytes()) << "rename over an existing file";

  const FileId d = files.Intern(P("/bytes/dddd.txt"));
  files.MarkDeleted(d, /*delete_delay=*/10);
  EXPECT_EQ(walk(), files.path_bytes()) << "delete";

  EXPECT_EQ(d, files.Intern(P("/bytes/dddd.txt")));
  EXPECT_EQ(walk(), files.path_bytes()) << "resurrection";

  // A decoded table starts from restored records, names included.
  FileTable restored;
  for (FileId id = 0; id < files.size(); ++id) {
    restored.RestoreRecord(files.Get(id));
  }
  EXPECT_EQ(files.path_bytes(), restored.path_bytes()) << "restore";
}

}  // namespace
}  // namespace seer
