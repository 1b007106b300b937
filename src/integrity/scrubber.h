#ifndef SAGA_INTEGRITY_SCRUBBER_H_
#define SAGA_INTEGRITY_SCRUBBER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/status.h"
#include "integrity/snapshot.h"

namespace saga::integrity {

/// Integrity scrubber: a pass that walks the store's durable artifacts
/// — MANIFEST-listed SSTables, the WAL tail, and the embedding shard
/// (EmbeddingStore::kShardFileName) when the directory has one —
/// re-verifying checksums end to end, repairing rotted files from the
/// newest good snapshot, and quarantining what it cannot repair (loud
/// failure beats silent rot).
///
/// Metrics: bumps `integrity.scrub.*` counters and the
/// `integrity.corruption.detected/repaired/quarantined` family (the
/// latter two via SnapshotManager / the quarantine path).
class Scrubber {
 public:
  struct Options {
    /// Optional: repair source. Without it corrupt files are
    /// quarantined only.
    SnapshotManager* snapshots = nullptr;
  };

  struct Stats {
    uint64_t passes = 0;
    uint64_t files_scanned = 0;
    uint64_t bytes_scanned = 0;
    uint64_t corrupt_found = 0;
    uint64_t repaired = 0;
    uint64_t quarantined = 0;
    /// Wall-clock (unix ms) each file last passed verification.
    std::map<std::string, int64_t> last_verified_unix_ms;
  };

  Scrubber(std::string store_dir, Options options);

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  /// One synchronous full pass. Always completes the walk; per-file
  /// problems are counted, repaired or quarantined, never turned into an
  /// early return.
  Status RunOnce();

  Stats stats() const;

 private:
  enum class FileKind { kSSTable, kWal, kEmbedding };

  void ScrubFile(const std::string& path, FileKind kind);
  /// Verify-only step; kDataLoss/kCorruption means rot.
  Status VerifyFile(const std::string& path, FileKind kind);
  void MarkVerified(const std::string& path, uint64_t bytes);
  void HandleCorrupt(const std::string& path, FileKind kind,
                     const Status& why);

  std::string store_dir_;
  Options options_;

  mutable std::mutex mu_;
  Stats stats_;
};

}  // namespace saga::integrity

#endif  // SAGA_INTEGRITY_SCRUBBER_H_
