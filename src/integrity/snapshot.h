#ifndef SAGA_INTEGRITY_SNAPSHOT_H_
#define SAGA_INTEGRITY_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/checksum.h"
#include "common/result.h"
#include "common/status.h"

namespace saga::integrity {

struct SnapshotInfo {
  std::string name;
  size_t num_files = 0;
  uint64_t total_bytes = 0;
};

/// One SNAPMANIFEST line: a member file and the digest of its bytes.
struct SnapshotEntry {
  std::string file;
  Digest digest;
};

/// The entries of a SNAPMANIFEST image. Corruption unless it is the
/// text frame Create writes, each entry `<name> <size> <crc>` with a
/// plain file name and canonical decimals.
Result<std::vector<SnapshotEntry>> DecodeSnapshotManifest(
    std::string_view data);

/// Point-in-time snapshots of a KvStore directory: every file
/// storage::LiveFiles lists.
///
/// A snapshot is a directory under `<root>/<name>` holding:
///   - hard links to the immutable SSTables (free and instant; falls
///     back to a copy on filesystems without links),
///   - byte copies of the MANIFEST and the WAL files (Recover truncates
///     a damaged WAL segment in place, so a link could change),
///   - a CRC'd SNAPMANIFEST listing every file with its size and CRC32,
///     so Verify() can prove the snapshot intact years later.
///
/// Creation is atomic: everything is staged in a `.tmp_<name>`
/// directory and renamed into place (durable rename), so a crash
/// mid-create leaves only staging debris, never a half snapshot that
/// List()/Restore() would trust.
///
/// Hard links mean a snapshot shares bytes with the live store — which
/// is exactly why SSTables must stay immutable (the store only ever
/// renames them aside, never rewrites in place).
class SnapshotManager {
 public:
  /// Snapshots live under `<store_dir>/snapshots`.
  explicit SnapshotManager(std::string store_dir);

  /// Snapshots the store's current committed state (its live files).
  /// AlreadyExists if `name` is taken; kCorruption or kDataLoss
  /// when a copied table or MANIFEST fails storage::VerifyLiveFile
  /// (never snapshot a corrupt truth). WAL files are copied as they
  /// are: replay truncates a torn tail.
  Result<SnapshotInfo> Create(const std::string& name);

  /// Snapshot names, sorted (staging debris excluded).
  Result<std::vector<std::string>> List() const;

  /// Proves the snapshot intact: SNAPMANIFEST CRC plus every member
  /// file present with matching size and CRC32. kDataLoss names the
  /// first rotted file.
  Status Verify(const std::string& name) const;

  /// Restores the snapshot into the store directory: verifies first,
  /// removes every live WAL file the snapshot does not hold (it would
  /// replay post-snapshot writes), copies members back (each
  /// atomically), MANIFEST last as the commit point. Tables newer than
  /// the snapshot are left for recovery to quarantine as orphans.
  Status Restore(const std::string& name);

  /// Replaces `<store_dir>/<file_name>` with the copy in the newest
  /// snapshot holding a CRC-matching one and returns that snapshot. A
  /// copy can be older than the file (a MANIFEST from before a flush), so
  /// it is staged beside the file as `<file_name>.repair.tmp` (which
  /// KvStore recovery sweeps after a crash) and renamed over it only
  /// when it passes `check` there. NotFound when no snapshot has a good
  /// copy; `check`'s error when the copy fails it.
  Result<std::string> RepairFile(
      const std::string& file_name,
      const std::function<Status(const std::string&)>& check);

  Result<SnapshotInfo> Info(const std::string& name) const;

 private:
  std::string SnapshotDir(const std::string& name) const;
  Result<std::vector<SnapshotEntry>> ReadSnapshotManifest(
      const std::string& name) const;

  std::string store_dir_;
  std::string root_;
};

}  // namespace saga::integrity

#endif  // SAGA_INTEGRITY_SNAPSHOT_H_
