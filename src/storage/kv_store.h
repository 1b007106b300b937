#ifndef SAGA_STORAGE_KV_STORE_H_
#define SAGA_STORAGE_KV_STORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/request_context.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "resource/disk_space_governor.h"
#include "storage/memtable.h"
#include "storage/sstable.h"
#include "storage/wal.h"

namespace saga::storage {

/// Log-structured KV store: WAL + memtable + a stack of SSTables with
/// bloom filters and full compaction. Serves as (a) the low-latency
/// embedding cache behind the semantic-annotation reranker (§3.2) and
/// (b) the key-value store of each serving version (VersionManager).
///
/// Crash safety: every SSTable is built in a temp file and atomically
/// renamed in; the set of live tables is committed in a small CRC'd
/// MANIFEST written after each flush/compaction (before the covering
/// WAL segments are deleted), so a crash at any point leaves either
/// the old or the new table set — never a torn mix. Recover()
/// quarantines corrupt or orphaned tables (renames them aside and
/// counts them) and degrades a bad WAL tail to "stop replay there"
/// instead of refusing to open. See DESIGN.md, "Durability & failure
/// model".
///
/// Threading model (DESIGN.md, "KvStore threading model"): the store
/// is safe for concurrent readers and writers. Reads take an
/// immutable superversion snapshot — {active memtable, sealed
/// immutable memtables, SSTable set} — published as a shared_ptr
/// under a small mutex (RCU-style: readers copy the pointer and then
/// probe lock-free; only the active-memtable probe takes a shared
/// lock, since writers still mutate it). Writers are serialized with
/// each other; a full memtable is sealed (made immutable, its WAL
/// rotated into a segment) and either flushed inline (default) or
/// handed to a background maintenance thread
/// (Options::background_maintenance) so Put never waits on a flush or
/// compaction. When maintenance falls behind, writes shed with
/// kResourceExhausted instead of blocking (see
/// Options::max_immutable_memtables).
class KvStore {
 public:
  struct Options {
    /// Flush the memtable to an SSTable once it exceeds this budget.
    /// saga_cli and bench_resource tune it down to tens of KiB so a
    /// short run crosses many flushes.
    size_t memtable_max_bytes = 4 << 20;
    /// Disable to trade durability for ingest speed (bulk loads).
    bool use_wal = true;
    /// fsync after every write: an OK Put is durable.
    bool sync_every_write = false;
    /// When > 0, a flush that leaves more than this many SSTables
    /// triggers CompactAll automatically (simple tiered compaction,
    /// bounding read amplification).
    int auto_compact_trigger = 0;
    /// Optional disk-space governor. When set, every write path
    /// reserves bytes before touching disk (WAL append, memtable
    /// flush, compaction output), ENOSPC-shaped failures trip the
    /// governor's read-only degraded mode, and Put fails fast
    /// with a storage-origin kResourceExhausted while degraded — reads
    /// keep serving. Not owned; must outlive the store. Background
    /// jobs take their reservations (and trip degraded mode) from the
    /// maintenance thread with identical semantics.
    resource::DiskSpaceGovernor* governor = nullptr;
    /// Move flush and compaction off the write path onto a dedicated
    /// maintenance thread: Put seals the full memtable and schedules
    /// work instead of flushing inline. Off by default — single-thread
    /// users (saga_cli, bench_resource, VersionManager, bench_swap)
    /// keep the synchronous contract where a returned Put already
    /// flushed. Only work on the maintenance thread counts in
    /// storage.kv.bg.flushes and storage.kv.bg.compactions.
    bool background_maintenance = false;
    /// Write-stall gate: with background maintenance on, a Put that
    /// would seal while this many memtables are already sealed and
    /// unflushed sheds with kResourceExhausted instead of blocking
    /// behind the maintenance thread.
    int max_immutable_memtables = 4;
  };

  /// What Recover() found and repaired. Anything nonzero besides
  /// `sstables_loaded` / `wal_records_replayed` means the store healed
  /// itself from a crash or corruption.
  struct RecoveryStats {
    uint64_t sstables_loaded = 0;
    /// Live tables that failed to open (corrupt); renamed aside to
    /// `<name>.quarantined`.
    uint64_t sstables_quarantined = 0;
    /// Tables on disk but not in the manifest (crash between table
    /// rename and manifest commit); also renamed aside.
    uint64_t orphans_quarantined = 0;
    /// Manifest entries with no file on disk (lost tables).
    uint64_t missing_tables = 0;
    /// Leftover `.tmp` build artifacts deleted.
    uint64_t tmp_files_removed = 0;
    /// `sst_*` names that do not parse as `sst_<digits>.sst`.
    uint64_t malformed_names_skipped = 0;
    uint64_t wal_records_replayed = 0;
    /// Records dropped because a record failed to decode (everything
    /// from the bad record on).
    uint64_t wal_records_dropped = 0;
    /// Trailing torn/corrupt WAL bytes discarded by replay.
    uint64_t wal_bytes_dropped = 0;
    /// Sealed-but-unflushed WAL segments replayed (a crash while
    /// background maintenance was behind).
    uint64_t wal_segments_replayed = 0;
    bool manifest_found = false;
  };

  /// Opens (or creates) a store in `dir`, replaying any WAL tail.
  static Result<std::unique_ptr<KvStore>> Open(const std::string& dir,
                                               Options options);
  static Result<std::unique_ptr<KvStore>> Open(const std::string& dir);

  ~KvStore();

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  Status Put(std::string_view key, std::string_view value);
  /// Point read under `RequestContext()` (no deadline): the same path
  /// as the overload below.
  Result<std::string> Get(std::string_view key);

  /// The read path: consults the `kv.read` fault point (latency/failure
  /// injection) and checks the request deadline before each SSTable
  /// probe.
  Result<std::string> Get(std::string_view key, const RequestContext& ctx);

  /// Key/value pairs whose key starts with `prefix`, in key order.
  /// Reads from a superversion snapshot: concurrent writes may or may
  /// not be visible, but every returned value was acknowledged.
  Result<std::vector<std::pair<std::string, std::string>>> ScanPrefix(
      std::string_view prefix);

  /// Seals the active memtable and drains every sealed memtable to
  /// disk inline (even with background maintenance on) — on return,
  /// all prior writes are in SSTables.
  Status Flush();

  /// Merges all SSTables into one, dropping shadowed versions. Also retries removal of any files a previous compaction
  /// failed to delete. Inputs are read checksum-verified: a rotted
  /// source block aborts the compaction with kDataLoss rather than
  /// folding garbage into the merged table. Runs inline, serialized
  /// with background maintenance.
  Status CompactAll();

  /// Re-verifies every block CRC of every live table (a version swap's
  /// checksum pass; ignores the first-read memo). kDataLoss names the first
  /// bad table/block. Read-only: quarantine/repair is the caller's
  /// call, since a repair source (snapshot) may exist.
  Status VerifyTables() const;

  /// Deletes stale table files whose earlier removal failed and returns
  /// the bytes freed. Registered with the disk-space governor as a
  /// reclaim task; per the governor contract it does NOT call
  /// OnBytesFreed itself.
  Result<uint64_t> DropObsoleteFiles();

  /// Blocks until no background maintenance is queued or running.
  /// Sealed memtables may remain if the last run failed (see
  /// background_error()); a later write reschedules the drain.
  void WaitForMaintenance();

  /// Outcome of the most recent background maintenance run (OK when
  /// none has run). Foreground writes are unaffected by a failed run —
  /// the WAL segments still cover the sealed memtables — but a stuck
  /// error here plus a rising `storage.kv.bg.imm_memtables` gauge means
  /// the store is stalling toward write sheds.
  Status background_error() const;

  size_t num_sstables() const;
  const RecoveryStats& recovery_stats() const { return recovery_; }

 private:
  /// A sealed memtable plus the newest WAL segment covering it; the
  /// segment (and all older ones) is deleted only after this memtable
  /// is flushed and manifest-committed.
  struct ImmMemtable {
    std::shared_ptr<const MemTable> mem;
    uint64_t wal_seq = 0;
  };

  /// Immutable snapshot of the store's read state, published as a
  /// shared_ptr under state_mu_ (RCU): readers copy the pointer and
  /// probe without locks — except `mem`, which writers still mutate
  /// and which is therefore probed under a shared mem_mu_ lock.
  struct Superversion {
    std::shared_ptr<MemTable> mem;
    std::vector<ImmMemtable> imm;  // oldest first
    /// Newest last; lookup walks back-to-front.
    std::vector<std::shared_ptr<SSTableReader>> tables;
  };

  struct WalSegment {
    uint64_t seq = 0;
    std::string path;
    uint64_t bytes = 0;
  };

  KvStore(std::string dir, Options options);

  Status Recover();
  std::string SstPath(uint64_t seq) const;
  std::string WalPath() const;
  std::string WalSegmentPath(uint64_t seq) const;
  std::string ManifestPath() const;
  Status LogPut(std::string_view key, std::string_view value);
  /// Degraded-mode gate for Put: storage-origin
  /// kResourceExhausted (never retried by RetryPolicy) while the
  /// governor reports degraded.
  Status CheckWritable();
  /// True when sealing another memtable would exceed
  /// max_immutable_memtables; optionally reports the sealed count.
  bool SealGateExceeded(size_t* imm_count);
  /// Write-stall backpressure: with background maintenance on, sheds
  /// (plain kResourceExhausted) when the memtable is full but sealing
  /// would exceed max_immutable_memtables. Runs
  /// before the WAL append so a shed write is never partially applied.
  Status CheckWriteStall();
  /// Rebuilds a fsync-gate-poisoned WAL before the next append: seal +
  /// drain inline when the memtable has data (manifest commit, then
  /// the poisoned segment is deleted), else truncate in place — either
  /// way the log comes back on a fresh fd.
  Status EnsureWalUsable();
  /// Routes an ENOSPC-shaped write failure into the governor's
  /// degraded-mode trip (no-op for other failures / no governor).
  void NoteWriteFailure(const Status& s);

  /// Makes the active memtable immutable: rotates the WAL into a
  /// segment, appends the memtable to the superversion's imm list and
  /// installs a fresh active memtable. Caller holds write_mu_.
  Status SealActiveMemtableLocked();
  /// Flushes sealed memtables oldest-first until none remain, then
  /// auto-compacts if over trigger. Serialized by maint_mu_. Only a
  /// drain on the maintenance thread (`background`) counts its work in
  /// storage.kv.bg.flushes and storage.kv.bg.compactions.
  Status DrainMaintenance(bool background);
  /// Flushes the single oldest sealed memtable (build + manifest
  /// commit + superversion publish + covered-segment deletion).
  /// Caller holds maint_mu_.
  Status FlushOneImmLocked();
  /// CompactAll body; caller holds maint_mu_.
  Status CompactAllLocked();
  /// Coalesced background trigger: queues one maintenance run on the
  /// pool unless one is already queued.
  void ScheduleMaintenance();
  void RunBackgroundMaintenance();

  std::shared_ptr<const Superversion> CurrentSuperversion() const;
  /// Publishes `sv` as the current superversion and refreshes the
  /// storage.kv.bg.* gauges. Caller holds state_mu_.
  void PublishLocked(std::shared_ptr<const Superversion> sv);

  /// Commits `tables` as the live set durably.
  Status WriteManifest(
      const std::vector<std::shared_ptr<SSTableReader>>& tables);
  /// Quarantines dir_/name (best-effort) and counts it.
  void QuarantineTable(const std::string& name);
  /// Builds an SSTable from sorted entries, opens it, retrying
  /// transient failures and rebuilding on fresh-table corruption.
  Result<std::shared_ptr<SSTableReader>> BuildTableWithRetry(
      const std::string& path,
      const std::map<std::string, std::string, std::less<>>& rows);
  /// Replays intact, decodable put records into the active memtable and
  /// returns the on-disk byte length of that replayed prefix (so
  /// Recover can truncate a damaged log before appending behind the
  /// damage). Accumulates into recovery_ across multiple logs.
  uint64_t ReplayWal(const WalReadResult& wal, bool* stopped_early);

  std::string dir_;
  Options options_;
  RecoveryStats recovery_;
  RetryPolicy retry_;

  /// Serializes writers end-to-end (stall gate, WAL append, memtable
  /// apply, seal). Never held across a flush or compaction in
  /// background mode. Lock order: write_mu_ -> maint_mu_ -> state_mu_;
  /// mem_mu_ is a leaf.
  std::mutex write_mu_;
  /// Serializes flush/compaction bodies (inline and background).
  std::mutex maint_mu_;
  /// The small RCU mutex: guards the superversion pointer and the
  /// bookkeeping published with it. Critical sections never do IO.
  mutable std::mutex state_mu_;
  /// Guards every MemTable probe: writers take it exclusive for the
  /// in-memory apply only (never across IO), readers shared.
  mutable std::shared_mutex mem_mu_;

  std::shared_ptr<const Superversion> sv_;  // guarded by state_mu_
  /// The active memtable (== sv_->mem); writers only, under write_mu_.
  std::shared_ptr<MemTable> mem_;
  std::unique_ptr<WalWriter> wal_;  // writers only, under write_mu_
  /// Sealed WAL segments oldest-first (guarded by state_mu_). Deleted
  /// strictly in order once covered by a flush — a gap would let an
  /// older segment's replay shadow newer flushed data after a crash.
  std::vector<WalSegment> wal_segments_;
  uint64_t next_wal_seq_ = 1;  // writers only, under write_mu_
  uint64_t next_sst_seq_ = 0;  // guarded by state_mu_
  std::vector<std::string> pending_gc_;  // guarded by state_mu_
  Status bg_error_;                      // guarded by state_mu_

  std::atomic<bool> bg_scheduled_{false};
  std::atomic<bool> shutting_down_{false};
  /// Declared last: destroyed first, so in-flight maintenance drains
  /// before any state it touches goes away.
  std::unique_ptr<ThreadPool> bg_pool_;
};

/// The kinds of file that hold a store's committed state: its tables
/// (`sst_<seq>.sst`), the MANIFEST that commits which are live, sealed
/// WAL segments (`wal_<seq>.log`) and the active `wal.log`. Tooling
/// learns the store's layout only through the functions below.
enum class LiveFileKind { kTable, kManifest, kWalSegment, kWal };

struct LiveFile {
  std::string name;  // inside the store directory
  LiveFileKind kind;
};

/// Every file in `dir` that holds committed state, in this order: the
/// tables Recover loads (the MANIFEST's in commit order, or every table
/// in seq order when it is absent or does not decode), the MANIFEST,
/// the sealed WAL segments in seq order and the active WAL.
Result<std::vector<LiveFile>> LiveFiles(const std::string& dir);

/// A sealed segment or the active WAL. Replay truncates a damaged WAL
/// tail, so a WAL is never refused for one nor replaced from a copy.
inline bool IsWal(LiveFileKind kind) {
  return kind == LiveFileKind::kWalSegment || kind == LiveFileKind::kWal;
}

/// The end-to-end check of one live file, kDataLoss or kCorruption on
/// rot: every block CRC of a table; a MANIFEST that decodes; a WAL that
/// replays to its last byte.
Status VerifyLiveFile(const std::string& path, LiveFileKind kind);

/// The check a copy from elsewhere (a snapshot's) at `copy` must pass
/// before it replaces the live file of `kind` in `dir`: VerifyLiveFile,
/// and for a MANIFEST, naming every table in `dir`. A MANIFEST copy from
/// before a flush or compaction leaves a newer table out, and the next
/// open would quarantine that table as an orphan.
Status VerifyRepairCopy(const std::string& copy, LiveFileKind kind,
                        const std::string& dir);

/// A MANIFEST's table names in commit order. Corruption unless `data`
/// is a MANIFEST frame naming only `sst_<seq>.sst` files.
Result<std::vector<std::string>> DecodeManifest(std::string_view data);

/// Renames a bad file aside to `<path>.quarantined`, durably, where no
/// directory scan loads it.
Status QuarantineFile(const std::string& path);

}  // namespace saga::storage

#endif  // SAGA_STORAGE_KV_STORE_H_
