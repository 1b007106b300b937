#ifndef SAGA_RESOURCE_DISK_SPACE_GOVERNOR_H_
#define SAGA_RESOURCE_DISK_SPACE_GOVERNOR_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/health_section.h"
#include "common/result.h"
#include "common/status.h"

namespace saga::resource {

/// Tracks a byte budget for one data directory and hands out
/// reservations to every write path (WAL append/rotation, SSTable
/// flush, compaction output, snapshot creation, embedding-shard
/// install). The paper's platform grows the graph continuously while
/// serving it, so compactions, WAL growth and snapshots are always
/// consuming disk under read traffic — the governor is what turns
/// "the disk filled up" from an undefined mid-write abort into an
/// explicit, recoverable degraded mode.
///
/// Budget model:
///  - `budget_bytes > 0`: a simulated budget (tests, chaos harness,
///    multi-tenant caps). The governor does its own accounting:
///    committed reservations consume the budget, OnBytesFreed returns
///    it.
///  - `budget_bytes == 0`: the real filesystem, via statvfs(2); free
///    space is whatever the device reports minus outstanding
///    reservations.
///
/// Emergency floor: normal (kWrite-class) reservations are refused
/// once they would dip below `emergency_floor_bytes`. Reclaim-class
/// work — compaction output, WAL rewrites — may use the floor, because
/// compaction is how space gets *reclaimed*: a governor that starves
/// compaction at 100% full can never get un-full.
///
/// Degraded-mode state machine (hysteresis both ways):
///
///     ok --(kWrite reservation denied | NoteExhausted)--> degraded
///     degraded --(free >= floor * kExitHeadroomFactor)--> ok
///
/// The exit check runs whenever space is returned (OnBytesFreed,
/// budget raise, RunReclaim) — never on the deny path — so the store
/// does not flap at the boundary. While degraded, owners (KvStore,
/// replication followers, the snapshot manager) fail writes fast with
/// a storage-origin kResourceExhausted and keep serving reads.
///
/// Reclaim: owners register reclaim tasks in priority order (the store
/// registers dropping obsolete SSTables). RunReclaim()
/// walks them while degraded, stopping as soon as the exit threshold
/// is cleared — it never deletes more than recovery needs.
///
/// Thread-safe. Metrics: resource.governor.* gauges/counters and
/// resource.reclaim.*; BuildHealthSection() renders the same numbers
/// for `saga_cli resource` and `bench_resource` (its denial, degraded
/// entry and reclaimed-byte rows are the process-wide counters).
class DiskSpaceGovernor {
 public:
  struct Options {
    /// Simulated budget in bytes; 0 = ask statvfs(2) for the real
    /// free space of `data_dir`.
    uint64_t budget_bytes = 0;
    /// kWrite reservations keep at least this much headroom free.
    uint64_t emergency_floor_bytes = 4 << 20;
  };
  /// Degraded mode exits once free space recovers above
  /// emergency_floor_bytes * this factor (hysteresis).
  static constexpr uint64_t kExitHeadroomFactor = 2;

  enum class ReservationClass {
    /// Ordinary write-path space (WAL, flush, snapshot create). Must
    /// clear the emergency floor.
    kWrite,
    /// Space spent to reclaim space (compaction output, log rewrite).
    /// May use the emergency floor — refusing it would deadlock
    /// recovery.
    kReclaim,
  };

  /// RAII hold on reserved bytes. Commit(n) converts n bytes into
  /// consumed budget and releases the rest; destruction releases
  /// everything uncommitted (the write failed or wrote less than
  /// feared). Move-only; must not outlive the governor.
  class Reservation {
   public:
    Reservation() = default;
    Reservation(Reservation&& other) noexcept { *this = std::move(other); }
    Reservation& operator=(Reservation&& other) noexcept;
    ~Reservation() { Release(); }

    Reservation(const Reservation&) = delete;
    Reservation& operator=(const Reservation&) = delete;

    /// Marks `bytes_used` of the reservation as actually written
    /// (clamped to the reserved amount) and releases the remainder.
    void Commit(uint64_t bytes_used);
    /// Returns all reserved bytes without consuming budget.
    void Release();

   private:
    friend class DiskSpaceGovernor;
    Reservation(DiskSpaceGovernor* gov, uint64_t bytes)
        : gov_(gov), bytes_(bytes) {}

    DiskSpaceGovernor* gov_ = nullptr;
    uint64_t bytes_ = 0;
  };

  DiskSpaceGovernor(std::string data_dir, Options options);

  DiskSpaceGovernor(const DiskSpaceGovernor&) = delete;
  DiskSpaceGovernor& operator=(const DiskSpaceGovernor&) = delete;

  /// Reserves `bytes` ahead of a write. Denied with a storage-origin
  /// kResourceExhausted when the class's headroom would be violated; a
  /// kWrite denial trips degraded mode.
  Result<Reservation> Reserve(uint64_t bytes,
                              ReservationClass cls = ReservationClass::kWrite);

  /// Space returned to the budget (obsolete SSTable deleted, WAL
  /// truncated). Runs the degraded-exit check.
  void OnBytesFreed(uint64_t bytes);

  /// The device itself said no (real ENOSPC or an injected kNoSpace
  /// fault) even though accounting had room: trip degraded mode so
  /// writers fail fast until reclaim confirms space is back.
  void NoteExhausted(const std::string& why);

  /// Raises/lowers the simulated budget (CLI override, tests).
  /// Re-evaluates degraded mode in both directions.
  void SetBudgetBytes(uint64_t budget_bytes);

  bool degraded() const;
  /// Headroom available to new reservations right now.
  uint64_t FreeBytes() const;
  uint64_t budget_bytes() const;
  uint64_t used_bytes() const;

  /// Returns `emergency_floor_bytes * kExitHeadroomFactor`:
  /// the free-space level at which degraded mode exits.
  uint64_t ExitThresholdBytes() const;

  /// One reclaim lever; returns bytes freed (0 = nothing to do). The
  /// task must NOT call OnBytesFreed for the bytes it reports —
  /// RunReclaim does that accounting once per task.
  using ReclaimFn = std::function<Result<uint64_t>()>;
  /// Tasks run in registration order — register cheap/safe levers
  /// first, destructive ones last.
  void RegisterReclaimTask(std::string name, ReclaimFn fn);

  /// While degraded, runs reclaim tasks in order until the exit
  /// threshold is cleared or every task came up dry; returns total
  /// bytes freed. No-op (0) when not degraded.
  uint64_t RunReclaim();

  /// Pushes the resource.governor.* gauges.
  void UpdateMetrics() const;
  obs::HealthSection BuildHealthSection() const;

 private:
  uint64_t FreeBytesLocked() const;
  void EnterDegradedLocked(const std::string& why);
  void MaybeExitDegradedLocked();
  void ReleaseBytes(uint64_t bytes);
  void CommitBytes(uint64_t reserved, uint64_t used);

  struct ReclaimTask {
    std::string name;
    ReclaimFn fn;
  };

  std::string data_dir_;
  Options options_;

  mutable std::mutex mu_;
  uint64_t used_ = 0;      // simulated mode only
  uint64_t reserved_ = 0;  // outstanding reservations
  bool degraded_ = false;
  std::vector<ReclaimTask> tasks_;
};

}  // namespace saga::resource

#endif  // SAGA_RESOURCE_DISK_SPACE_GOVERNOR_H_
