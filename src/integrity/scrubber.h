#ifndef SAGA_INTEGRITY_SCRUBBER_H_
#define SAGA_INTEGRITY_SCRUBBER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "common/status.h"
#include "integrity/snapshot.h"

namespace saga::integrity {

/// Integrity scrubber: a pass that walks the store's durable artifacts
/// — every file storage::LiveFiles lists (tables, MANIFEST, sealed WAL
/// segments, the active WAL) and the embedding shard
/// (EmbeddingStore::kShardFileName) when the directory has one —
/// re-verifying each end to end. A rotted table or MANIFEST is replaced
/// by the newest good snapshot copy that passes
/// storage::VerifyRepairCopy, and quarantined when there is none (loud
/// failure beats silent rot). The shard, which no snapshot holds, is
/// quarantined; WAL damage is only reported.
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

  /// One synchronous full pass; fails only when the directory cannot be
  /// listed. Per-file problems are counted, repaired or quarantined,
  /// never turned into an early return.
  Status RunOnce();

  Stats stats() const;

 private:
  using Check = std::function<Status(const std::string&)>;

  /// What a pass does with a file that fails its check: count it only,
  /// rename it aside, or replace it with a snapshot copy that passes
  /// `verify_copy` (SnapshotManager::RepairFile) and rename it aside
  /// when there is none.
  enum class OnRot { kReport, kQuarantine, kRepair };

  /// Checks `<store_dir>/name` with `verify` (kDataLoss or kCorruption
  /// means rot) and handles rot as `on_rot` says.
  void ScrubFile(const std::string& name, const Check& verify, OnRot on_rot,
                 const Check& verify_copy = nullptr);

  std::string store_dir_;
  Options options_;

  mutable std::mutex mu_;
  Stats stats_;
};

}  // namespace saga::integrity

#endif  // SAGA_INTEGRITY_SCRUBBER_H_
