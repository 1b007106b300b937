#ifndef SAGA_INTEGRITY_SNAPSHOT_H_
#define SAGA_INTEGRITY_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace saga::integrity {

struct SnapshotInfo {
  std::string name;
  size_t num_files = 0;
  uint64_t total_bytes = 0;
};

/// Point-in-time snapshots of a KvStore directory (tables + MANIFEST +
/// WAL) plus any extra files the caller names (embedding shards).
///
/// A snapshot is a directory under `<root>/<name>` holding:
///   - hard links to the immutable SSTables (free and instant; falls
///     back to a copy on filesystems without links),
///   - byte copies of the mutable files (wal.log, MANIFEST, extras),
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
  /// `snapshot_root` defaults to `<store_dir>/snapshots`.
  explicit SnapshotManager(std::string store_dir,
                           std::string snapshot_root = "");

  /// Snapshots the store's current committed state (MANIFEST tables +
  /// WAL + extras). AlreadyExists if `name` is taken; Corruption if the
  /// store's MANIFEST fails its CRC (never snapshot a corrupt truth).
  Result<SnapshotInfo> Create(const std::string& name,
                              const std::vector<std::string>& extra_files = {});

  /// Snapshot names, sorted (staging debris excluded).
  Result<std::vector<std::string>> List() const;

  /// Proves the snapshot intact: SNAPMANIFEST CRC plus every member
  /// file present with matching size and CRC32. kDataLoss names the
  /// first rotted file.
  Status Verify(const std::string& name) const;

  /// Restores the snapshot into the store directory: verifies first,
  /// copies members back (each atomically), MANIFEST last as the commit
  /// point, and removes a live wal.log the snapshot does not have.
  /// Files newer than the snapshot are left for recovery to quarantine
  /// as orphans.
  Status Restore(const std::string& name);

  /// Repairs one file from the newest snapshot holding a CRC-matching
  /// copy: copies it (atomic, durable) to `dest_path` — default
  /// `<store_dir>/<file_name>` — and returns the snapshot used.
  /// NotFound when no snapshot has a good copy.
  Result<std::string> RepairFile(const std::string& file_name,
                                 const std::string& dest_path = "");

  Result<SnapshotInfo> Info(const std::string& name) const;

 private:
  struct ManifestEntry {
    std::string file;
    uint64_t size = 0;
    uint32_t crc = 0;
  };

  std::string SnapshotDir(const std::string& name) const;
  Result<std::vector<ManifestEntry>> ReadSnapshotManifest(
      const std::string& name) const;

  std::string store_dir_;
  std::string root_;
};

}  // namespace saga::integrity

#endif  // SAGA_INTEGRITY_SNAPSHOT_H_
