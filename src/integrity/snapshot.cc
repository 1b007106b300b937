#include "integrity/snapshot.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "common/file_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "storage/kv_store.h"
#include "storage/wal.h"  // Crc32

namespace saga::integrity {

namespace {

constexpr char kSnapManifestName[] = "SNAPMANIFEST";
constexpr char kSnapHeader[] = "saga-snapshot-v1";
constexpr char kStagingPrefix[] = ".tmp_";
constexpr char kWalName[] = "wal.log";
constexpr char kKvManifestName[] = "MANIFEST";

bool ValidName(const std::string& name) {
  if (name.empty() || name.size() > 200) return false;
  if (name.front() == '.') return false;
  for (char c : name) {
    if (c == '/' || c == '\\' || c == '\n' || c == ' ') return false;
  }
  return true;
}

}  // namespace

SnapshotManager::SnapshotManager(std::string store_dir,
                                 std::string snapshot_root)
    : store_dir_(std::move(store_dir)), root_(std::move(snapshot_root)) {
  if (root_.empty()) root_ = JoinPath(store_dir_, "snapshots");
}

std::string SnapshotManager::SnapshotDir(const std::string& name) const {
  return JoinPath(root_, name);
}

Result<SnapshotInfo> SnapshotManager::Create(
    const std::string& name, const std::vector<std::string>& extra_files) {
  if (!ValidName(name)) {
    return Status::InvalidArgument("bad snapshot name: " + name);
  }
  const std::string final_dir = SnapshotDir(name);
  if (FileExists(final_dir)) {
    return Status::AlreadyExists("snapshot exists: " + name);
  }

  // The committed table set; a corrupt MANIFEST fails the snapshot (a
  // snapshot of unknown truth is worse than none), an absent one just
  // means an empty/fresh store.
  std::vector<std::string> tables;
  {
    auto r = storage::ReadManifestTables(store_dir_);
    if (r.ok()) {
      tables = std::move(*r);
    } else if (!r.status().IsNotFound()) {
      return r.status();
    }
  }

  // (source path, whether the source is immutable and safe to hard-link)
  std::vector<std::pair<std::string, bool>> members;
  for (const auto& t : tables) {
    members.emplace_back(JoinPath(store_dir_, t), true);
  }
  if (FileExists(JoinPath(store_dir_, kKvManifestName))) {
    members.emplace_back(JoinPath(store_dir_, kKvManifestName), false);
  }
  if (FileExists(JoinPath(store_dir_, kWalName))) {
    members.emplace_back(JoinPath(store_dir_, kWalName), false);
  }
  for (const auto& extra : extra_files) {
    if (!FileExists(extra)) {
      return Status::NotFound("snapshot extra file missing: " + extra);
    }
    // Extras (embedding shards) are rewritten via rename, never in
    // place, so the linked inode stays frozen — link them too.
    members.emplace_back(extra, true);
  }

  SAGA_RETURN_IF_ERROR(CreateDirIfMissing(root_));
  const std::string staging = JoinPath(root_, kStagingPrefix + name);
  (void)RemoveDirRecursively(staging);  // debris from a crashed create
  SAGA_RETURN_IF_ERROR(CreateDirIfMissing(staging));

  SnapshotInfo info;
  info.name = name;
  std::string manifest = kSnapHeader;
  manifest.push_back('\n');
  for (const auto& [src, immutable] : members) {
    const std::string base = std::string(
        std::string_view(src).substr(src.find_last_of('/') + 1));
    const std::string dst = JoinPath(staging, base);
    if (immutable) {
      SAGA_RETURN_IF_ERROR(HardLinkOrCopyFile(src, dst));
    } else {
      SAGA_RETURN_IF_ERROR(CopyFile(src, dst, /*durable=*/true));
    }
    // CRC the snapshot copy, not the source: what we certify is what
    // Restore will read back.
    SAGA_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(dst));
    manifest += base + " " + std::to_string(bytes.size()) + " " +
                std::to_string(storage::Crc32(bytes)) + "\n";
    ++info.num_files;
    info.total_bytes += bytes.size();
  }
  manifest += "crc:" + std::to_string(storage::Crc32(manifest)) + "\n";
  SAGA_RETURN_IF_ERROR(WriteStringToFile(JoinPath(staging, kSnapManifestName),
                                         manifest, /*durable=*/true));
  SAGA_RETURN_IF_ERROR(RenameFileDurable(staging, final_dir));
  SAGA_COUNTER("integrity.snapshot.created").Add();
  return info;
}

Result<std::vector<std::string>> SnapshotManager::List() const {
  if (!FileExists(root_)) return std::vector<std::string>{};
  SAGA_ASSIGN_OR_RETURN(std::vector<std::string> dirs, ListSubdirs(root_));
  std::vector<std::string> out;
  for (auto& d : dirs) {
    if (d.rfind(kStagingPrefix, 0) == 0) continue;
    out.push_back(std::move(d));
  }
  return out;
}

Result<std::vector<SnapshotManager::ManifestEntry>>
SnapshotManager::ReadSnapshotManifest(const std::string& name) const {
  const std::string path = JoinPath(SnapshotDir(name), kSnapManifestName);
  if (!FileExists(path)) {
    return Status::NotFound("no snapshot manifest: " + name);
  }
  SAGA_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  const size_t crc_pos = data.rfind("crc:");
  if (crc_pos == std::string::npos ||
      (crc_pos > 0 && data[crc_pos - 1] != '\n')) {
    return Status::Corruption("torn snapshot manifest: " + name);
  }
  const uint32_t stored = static_cast<uint32_t>(
      std::strtoul(data.c_str() + crc_pos + 4, nullptr, 10));
  if (storage::Crc32(std::string_view(data.data(), crc_pos)) != stored) {
    return Status::Corruption("snapshot manifest crc mismatch: " + name);
  }
  std::vector<ManifestEntry> entries;
  size_t start = 0;
  bool header_seen = false;
  while (start < crc_pos) {
    size_t end = data.find('\n', start);
    if (end == std::string::npos || end > crc_pos) end = crc_pos;
    const std::string line = data.substr(start, end - start);
    start = end + 1;
    if (!header_seen) {
      if (line != kSnapHeader) {
        return Status::Corruption("bad snapshot manifest header: " + name);
      }
      header_seen = true;
      continue;
    }
    if (line.empty()) continue;
    const size_t s1 = line.find(' ');
    const size_t s2 = line.find(' ', s1 + 1);
    if (s1 == std::string::npos || s2 == std::string::npos) {
      return Status::Corruption("bad snapshot manifest line: " + line);
    }
    ManifestEntry e;
    e.file = line.substr(0, s1);
    e.size = std::strtoull(line.c_str() + s1 + 1, nullptr, 10);
    e.crc = static_cast<uint32_t>(
        std::strtoul(line.c_str() + s2 + 1, nullptr, 10));
    entries.push_back(std::move(e));
  }
  return entries;
}

Status SnapshotManager::Verify(const std::string& name) const {
  SAGA_ASSIGN_OR_RETURN(std::vector<ManifestEntry> entries,
                        ReadSnapshotManifest(name));
  const std::string dir = SnapshotDir(name);
  for (const auto& e : entries) {
    const std::string path = JoinPath(dir, e.file);
    if (!FileExists(path)) {
      return Status::DataLoss("snapshot member missing: " + path);
    }
    SAGA_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
    if (bytes.size() != e.size || storage::Crc32(bytes) != e.crc) {
      SAGA_COUNTER("integrity.corruption.detected").Add();
      return Status::DataLoss("snapshot member crc mismatch: " + path);
    }
  }
  return Status::OK();
}

Result<SnapshotInfo> SnapshotManager::Info(const std::string& name) const {
  SAGA_ASSIGN_OR_RETURN(std::vector<ManifestEntry> entries,
                        ReadSnapshotManifest(name));
  SnapshotInfo info;
  info.name = name;
  info.num_files = entries.size();
  for (const auto& e : entries) info.total_bytes += e.size;
  return info;
}

Status SnapshotManager::Restore(const std::string& name) {
  SAGA_RETURN_IF_ERROR(Verify(name));
  SAGA_ASSIGN_OR_RETURN(std::vector<ManifestEntry> entries,
                        ReadSnapshotManifest(name));
  const std::string dir = SnapshotDir(name);
  bool has_wal = false;
  // Data files first, MANIFEST last: until the manifest lands, the
  // store still opens against its previous (intact) table set.
  for (const auto& e : entries) {
    if (e.file == kKvManifestName) continue;
    if (e.file == kWalName) has_wal = true;
    SAGA_RETURN_IF_ERROR(CopyFile(JoinPath(dir, e.file),
                                  JoinPath(store_dir_, e.file),
                                  /*durable=*/true));
  }
  if (!has_wal) {
    // The snapshot predates any live WAL; leaving one behind would
    // replay post-snapshot writes onto the restored tables.
    SAGA_RETURN_IF_ERROR(
        RemoveFileIfExists(JoinPath(store_dir_, kWalName)));
  }
  for (const auto& e : entries) {
    if (e.file != kKvManifestName) continue;
    SAGA_RETURN_IF_ERROR(CopyFile(JoinPath(dir, e.file),
                                  JoinPath(store_dir_, e.file),
                                  /*durable=*/true));
  }
  SAGA_COUNTER("integrity.snapshot.restored").Add();
  SAGA_LOG(Info) << "restored snapshot " << name << " into " << store_dir_;
  return Status::OK();
}

Result<std::string> SnapshotManager::RepairFile(const std::string& file_name,
                                                const std::string& dest_path) {
  const std::string dest =
      dest_path.empty() ? JoinPath(store_dir_, file_name) : dest_path;
  SAGA_ASSIGN_OR_RETURN(std::vector<std::string> names, List());
  // Newest snapshot first (names sort lexicographically; timestamped
  // names make that creation order).
  std::sort(names.rbegin(), names.rend());
  for (const auto& name : names) {
    auto entries = ReadSnapshotManifest(name);
    if (!entries.ok()) continue;
    for (const auto& e : *entries) {
      if (e.file != file_name) continue;
      const std::string src = JoinPath(SnapshotDir(name), e.file);
      auto bytes = ReadFileToString(src);
      if (!bytes.ok() || bytes->size() != e.size ||
          storage::Crc32(*bytes) != e.crc) {
        continue;  // this copy rotted too; keep looking
      }
      SAGA_RETURN_IF_ERROR(WriteStringToFile(dest, *bytes, /*durable=*/true));
      SAGA_COUNTER("integrity.corruption.repaired").Add();
      SAGA_LOG(Info) << "repaired " << dest << " from snapshot " << name;
      return name;
    }
  }
  return Status::NotFound("no snapshot holds a good copy of " + file_name);
}

}  // namespace saga::integrity
