#include "integrity/snapshot.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>

#include "common/file_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "storage/kv_store.h"

namespace saga::integrity {

namespace {

constexpr char kSnapManifestName[] = "SNAPMANIFEST";
constexpr char kSnapHeader[] = "saga-snapshot-v1";
constexpr char kStagingPrefix[] = ".tmp_";
/// Where RepairFile's copy waits beside the file it would replace. It
/// ends in ".tmp", so KvStore recovery sweeps a copy a crash left.
constexpr char kStagedSuffix[] = ".repair.tmp";

/// A plain file name, not hidden: staging directories start with a dot.
bool ValidName(std::string_view name) {
  return !name.empty() && name.size() <= 200 && name.front() != '.' &&
         name.find_first_of("/\\\n ") == std::string_view::npos;
}

}  // namespace

Result<std::vector<SnapshotEntry>> DecodeSnapshotManifest(
    std::string_view data) {
  SAGA_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                        DecodeTextFrame(data, kSnapHeader));
  std::vector<SnapshotEntry> entries;
  entries.reserve(lines.size());
  for (const std::string& line : lines) {
    const size_t s1 = line.find(' ');
    const size_t s2 = line.find(' ', s1 + 1);  // npos when s1 is
    std::optional<uint64_t> size;
    std::optional<uint64_t> crc;
    if (s2 != std::string::npos) {
      size = ParseDecimal(std::string_view(line).substr(s1 + 1, s2 - s1 - 1));
      crc = ParseDecimal(std::string_view(line).substr(s2 + 1));
    }
    const std::string file = line.substr(0, s1);
    if (!ValidName(file) || !size.has_value() || !crc.has_value() ||
        *crc > std::numeric_limits<uint32_t>::max()) {
      return Status::Corruption("bad snapshot manifest line: " + line);
    }
    entries.push_back(
        SnapshotEntry{file, Digest{*size, static_cast<uint32_t>(*crc)}});
  }
  return entries;
}

SnapshotManager::SnapshotManager(std::string store_dir)
    : store_dir_(std::move(store_dir)),
      root_(JoinPath(store_dir_, "snapshots")) {}

std::string SnapshotManager::SnapshotDir(const std::string& name) const {
  return JoinPath(root_, name);
}

Result<SnapshotInfo> SnapshotManager::Create(const std::string& name) {
  if (!ValidName(name)) {
    return Status::InvalidArgument("bad snapshot name: " + name);
  }
  const std::string final_dir = SnapshotDir(name);
  if (FileExists(final_dir)) {
    return Status::AlreadyExists("snapshot exists: " + name);
  }
  SAGA_ASSIGN_OR_RETURN(std::vector<storage::LiveFile> live,
                        storage::LiveFiles(store_dir_));

  SAGA_RETURN_IF_ERROR(CreateDirIfMissing(root_));
  const std::string staging = JoinPath(root_, kStagingPrefix + name);
  (void)RemoveDirRecursively(staging);  // debris from a crashed create
  SAGA_RETURN_IF_ERROR(CreateDirIfMissing(staging));

  std::vector<std::string> lines;
  for (const storage::LiveFile& f : live) {
    const std::string src = JoinPath(store_dir_, f.name);
    const std::string dst = JoinPath(staging, f.name);
    // Tables are never rewritten in place, so a link stays frozen.
    SAGA_RETURN_IF_ERROR(f.kind == storage::LiveFileKind::kTable
                             ? HardLinkOrCopyFile(src, dst)
                             : CopyFile(src, dst, /*durable=*/true));
    // Check and digest the snapshot copy, not the source: what we
    // certify is what Restore will read back. A torn WAL tail is crash
    // debris that replay truncates, so a WAL is copied as it is.
    if (!storage::IsWal(f.kind)) {
      SAGA_RETURN_IF_ERROR(storage::VerifyLiveFile(dst, f.kind));
    }
    SAGA_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(dst));
    const Digest d = DigestOf(bytes);
    lines.push_back(f.name + " " + std::to_string(d.size) + " " +
                    std::to_string(d.crc));
  }
  SAGA_RETURN_IF_ERROR(WriteStringToFile(JoinPath(staging, kSnapManifestName),
                                         EncodeTextFrame(kSnapHeader, lines),
                                         /*durable=*/true));
  SAGA_RETURN_IF_ERROR(RenameFileDurable(staging, final_dir));
  SAGA_COUNTER("integrity.snapshot.created").Add();
  return Info(name);
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

Result<std::vector<SnapshotEntry>> SnapshotManager::ReadSnapshotManifest(
    const std::string& name) const {
  const std::string path = JoinPath(SnapshotDir(name), kSnapManifestName);
  if (!FileExists(path)) {
    return Status::NotFound("no snapshot manifest: " + name);
  }
  SAGA_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  return DecodeSnapshotManifest(data);
}

Status SnapshotManager::Verify(const std::string& name) const {
  SAGA_ASSIGN_OR_RETURN(std::vector<SnapshotEntry> entries,
                        ReadSnapshotManifest(name));
  const std::string dir = SnapshotDir(name);
  for (const auto& e : entries) {
    const std::string path = JoinPath(dir, e.file);
    if (!FileExists(path)) {
      return Status::DataLoss("snapshot member missing: " + path);
    }
    SAGA_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
    if (DigestOf(bytes) != e.digest) {
      SAGA_COUNTER("integrity.corruption.detected").Add();
      return Status::DataLoss("snapshot member crc mismatch: " + path);
    }
  }
  return Status::OK();
}

Result<SnapshotInfo> SnapshotManager::Info(const std::string& name) const {
  SAGA_ASSIGN_OR_RETURN(std::vector<SnapshotEntry> entries,
                        ReadSnapshotManifest(name));
  SnapshotInfo info;
  info.name = name;
  info.num_files = entries.size();
  for (const auto& e : entries) info.total_bytes += e.digest.size;
  return info;
}

Status SnapshotManager::Restore(const std::string& name) {
  SAGA_RETURN_IF_ERROR(Verify(name));
  const std::string dir = SnapshotDir(name);
  SAGA_ASSIGN_OR_RETURN(std::vector<storage::LiveFile> members,
                        storage::LiveFiles(dir));
  std::set<std::string> held;
  for (const storage::LiveFile& m : members) held.insert(m.name);
  // A WAL file the snapshot does not hold carries post-snapshot writes
  // that replay would put back on the restored tables.
  SAGA_ASSIGN_OR_RETURN(std::vector<storage::LiveFile> live,
                        storage::LiveFiles(store_dir_));
  for (const storage::LiveFile& f : live) {
    if (storage::IsWal(f.kind) && held.count(f.name) == 0) {
      SAGA_RETURN_IF_ERROR(RemoveFileIfExists(JoinPath(store_dir_, f.name)));
    }
  }
  // Data files first, MANIFEST last: until the manifest lands, the
  // store still opens against its previous (intact) table set.
  std::stable_partition(members.begin(), members.end(), [](const auto& m) {
    return m.kind != storage::LiveFileKind::kManifest;
  });
  for (const storage::LiveFile& m : members) {
    SAGA_RETURN_IF_ERROR(CopyFile(JoinPath(dir, m.name),
                                  JoinPath(store_dir_, m.name),
                                  /*durable=*/true));
  }
  SAGA_COUNTER("integrity.snapshot.restored").Add();
  SAGA_LOG(Info) << "restored snapshot " << name << " into " << store_dir_;
  return Status::OK();
}

Result<std::string> SnapshotManager::RepairFile(
    const std::string& file_name,
    const std::function<Status(const std::string&)>& check) {
  const std::string dest = JoinPath(store_dir_, file_name);
  const std::string staged = dest + kStagedSuffix;
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
      if (!bytes.ok() || DigestOf(*bytes) != e.digest) {
        continue;  // this copy rotted too; keep looking
      }
      SAGA_RETURN_IF_ERROR(WriteStringToFile(staged, *bytes, /*durable=*/true));
      Status put = check(staged);
      if (put.ok()) put = RenameFileDurable(staged, dest);
      // A failed directory sync after the rename still leaves the copy
      // in place.
      if (!put.ok() && FileExists(staged)) {
        (void)RemoveFileIfExists(staged);
        return put;
      }
      SAGA_COUNTER("integrity.corruption.repaired").Add();
      SAGA_LOG(Info) << "repaired " << dest << " from snapshot " << name;
      return name;
    }
  }
  return Status::NotFound("no snapshot holds a good copy of " + file_name);
}

}  // namespace saga::integrity
