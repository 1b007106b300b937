#ifndef SAGA_INTEGRITY_SCRUBBER_H_
#define SAGA_INTEGRITY_SCRUBBER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "integrity/snapshot.h"
#include "resource/disk_space_governor.h"
#include "serving/admission_controller.h"

namespace saga::integrity {

/// Integrity scrubber: a low-priority, rate-limited pass that walks the
/// store's durable artifacts — MANIFEST-listed SSTables, the WAL tail,
/// embedding shards — re-verifying checksums end to end,
/// repairing rotted files from the newest good snapshot, and
/// quarantining what it cannot repair (loud failure beats silent rot).
///
/// Serving-tier citizenship: when handed an AdmissionController the
/// scrubber asks for a low-priority ticket before touching each file,
/// so under load it is shed first (PR 3 semantics) and backs off
/// instead of competing with interactive traffic.
///
/// Metrics: bumps `integrity.scrub.*` counters and the
/// `integrity.corruption.detected/repaired/quarantined` family (the
/// latter two via SnapshotManager / the quarantine path).
class Scrubber {
 public:
  struct Options {
    /// Backoff after an admission shed before retrying the ticket.
    double shed_backoff_ms = 10;
    /// Give up on a file after this many consecutive sheds (it will be
    /// retried next pass).
    int max_admit_retries = 20;
    /// Optional: low-priority admission before each file.
    serving::AdmissionController* admission = nullptr;
    /// Optional: repair source. Without it corrupt files are
    /// quarantined only.
    SnapshotManager* snapshots = nullptr;
    /// Optional disk-space governor. While it reports degraded the
    /// scrubber defers space-consuming repairs (a snapshot-sourced
    /// rewrite costs exactly the bytes reclaim is fighting for):
    /// corruption is still detected and counted, but repair/quarantine
    /// waits for the next pass after the store is writable again. Not
    /// owned.
    resource::DiskSpaceGovernor* governor = nullptr;
    /// Extra checksummed files to scrub (embedding shards; full paths).
    std::vector<std::string> embedding_files;
  };

  struct Stats {
    uint64_t passes = 0;
    uint64_t files_scanned = 0;
    uint64_t bytes_scanned = 0;
    uint64_t corrupt_found = 0;
    uint64_t repaired = 0;
    uint64_t quarantined = 0;
    uint64_t sheds = 0;
    /// Files skipped this-pass because admission kept shedding.
    uint64_t skipped_shed = 0;
    /// Repairs deferred because the store was disk-space degraded.
    uint64_t deferred_degraded = 0;
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

  /// Admission gate before touching one file. False = skip it this pass.
  bool AdmitFile();
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
