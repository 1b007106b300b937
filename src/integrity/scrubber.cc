#include "integrity/scrubber.h"

#include <chrono>

#include "common/file_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "embedding/embedding_store.h"
#include "storage/kv_store.h"
#include "storage/sstable.h"
#include "storage/wal.h"

namespace saga::integrity {

namespace {

constexpr char kWalName[] = "wal.log";

int64_t NowUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

Scrubber::Scrubber(std::string store_dir, Options options)
    : store_dir_(std::move(store_dir)), options_(options) {}

Status Scrubber::VerifyFile(const std::string& path, FileKind kind) {
  switch (kind) {
    case FileKind::kSSTable: {
      auto reader =
          storage::SSTableReader::Open(path, storage::ReadVerifyMode::kAlways);
      if (!reader.ok()) return reader.status();
      return (*reader)->VerifyChecksums();
    }
    case FileKind::kWal: {
      SAGA_ASSIGN_OR_RETURN(storage::WalReadResult wal,
                            storage::ReadWalRecordsDetailed(path));
      if (!wal.clean) {
        return Status::Corruption("wal tail damaged: " + path + " (" +
                                  std::to_string(wal.bytes_dropped) +
                                  " bytes)");
      }
      return Status::OK();
    }
    case FileKind::kEmbedding:
      return embedding::EmbeddingStore::Verify(path);
  }
  return Status::OK();
}

void Scrubber::MarkVerified(const std::string& path, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.files_scanned;
  stats_.bytes_scanned += bytes;
  stats_.last_verified_unix_ms[BaseName(path)] = NowUnixMs();
}

void Scrubber::HandleCorrupt(const std::string& path, FileKind kind,
                             const Status& why) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.corrupt_found;
  }
  SAGA_COUNTER("integrity.scrub.corrupt_found").Add();
  // Block-CRC and embedding-CRC failures already counted a detection at
  // the read site; structural open failures did not.
  if (!why.IsDataLoss()) {
    SAGA_COUNTER("integrity.corruption.detected").Add();
  }
  SAGA_LOG(Warning) << "scrub found corrupt file " << path << ": " << why;

  if (kind == FileKind::kWal) {
    // A damaged WAL tail is normal crash debris: recovery truncates it
    // and loses only unacknowledged records. Restoring an *older* WAL
    // over it would lose acknowledged ones — report, never "repair".
    return;
  }

  if (options_.snapshots != nullptr) {
    auto from = options_.snapshots->RepairFile(BaseName(path), path);
    if (from.ok()) {
      // Trust but verify: the repaired bytes must pass the same check
      // that just failed.
      if (VerifyFile(path, kind).ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.repaired;
        stats_.last_verified_unix_ms[BaseName(path)] = NowUnixMs();
        return;
      }
      SAGA_LOG(Error) << "repair of " << path << " from snapshot " << *from
                      << " did not verify; quarantining";
    }
  }

  const std::string quarantine = path + ".quarantined";
  (void)RemoveFileIfExists(quarantine);
  if (RenameFileDurable(path, quarantine).ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.quarantined;
    SAGA_COUNTER("integrity.corruption.quarantined").Add();
  } else {
    SAGA_LOG(Error) << "could not quarantine " << path;
  }
}

void Scrubber::ScrubFile(const std::string& path, FileKind kind) {
  if (!FileExists(path)) return;
  Status s = VerifyFile(path, kind);
  if (s.ok()) {
    uint64_t bytes = 0;
    if (auto size = FileSize(path); size.ok()) bytes = *size;
    MarkVerified(path, bytes);
  } else if (s.IsDataLoss() || s.IsCorruption()) {
    HandleCorrupt(path, kind, s);
  } else {
    // Transient (IO error, injected fault): leave it for the next pass.
    SAGA_LOG(Warning) << "scrub could not check " << path << ": " << s;
  }
}

Status Scrubber::RunOnce() {
  std::vector<std::pair<std::string, FileKind>> work;
  {
    auto tables = storage::ReadManifestTables(store_dir_);
    if (tables.ok()) {
      for (const auto& t : *tables) {
        work.emplace_back(JoinPath(store_dir_, t), FileKind::kSSTable);
      }
    } else if (tables.status().IsCorruption()) {
      // The MANIFEST itself rotted. Repair-from-snapshot if possible;
      // otherwise recovery's directory-scan fallback still works, so
      // count it and move on.
      HandleCorrupt(JoinPath(store_dir_, "MANIFEST"), FileKind::kSSTable,
                    tables.status());
    }
  }
  work.emplace_back(JoinPath(store_dir_, kWalName), FileKind::kWal);
  work.emplace_back(
      JoinPath(store_dir_, embedding::EmbeddingStore::kShardFileName),
      FileKind::kEmbedding);

  for (const auto& [path, kind] : work) ScrubFile(path, kind);

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.passes;
  }
  SAGA_COUNTER("integrity.scrub.passes").Add();
  SAGA_GAUGE("integrity.scrub.last_pass_unix_ms")
      .Set(static_cast<double>(NowUnixMs()));
  return Status::OK();
}

Scrubber::Stats Scrubber::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace saga::integrity
