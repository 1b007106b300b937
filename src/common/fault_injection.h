#ifndef SAGA_COMMON_FAULT_INJECTION_H_
#define SAGA_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace saga {

/// What happens when an armed fault point fires.
enum class FaultKind {
  /// The guarded operation fails with an injected IOError before doing
  /// any work (e.g. a rename or fsync that never happens).
  kFail,
  /// The payload is truncated to a prefix, the truncated bytes still
  /// reach disk, and the operation then reports failure — models a
  /// crash/power-cut mid-write.
  kTornWrite,
  /// One payload bit is flipped and the operation "succeeds" — models
  /// silent media corruption discovered only at read time.
  kBitFlip,
  /// The calling thread sleeps for `delay_ms` and the operation then
  /// proceeds normally — models a slow dependency (GC pause, degraded
  /// disk, overloaded replica) rather than a failed one. The overload
  /// harness uses this to drive breakers and hedged reads.
  kDelay,
  /// Read-side corruption: one bit of the bytes just read is flipped
  /// and the operation "succeeds" — models bit rot (media decay, bad
  /// RAM, a flaky controller) surfacing between disk and the caller.
  /// The checksummed read path (integrity subsystem) is expected to
  /// catch it and answer kDataLoss instead of serving garbage. Only
  /// meaningful at read-shaped points (InjectRead).
  kCorrupt,
  /// Network kinds, meaningful at transport-shaped points
  /// (InjectTransport; the replication tier's SimTransport consults
  /// `transport.send`). At non-transport points they degrade to the
  /// nearest disk-shaped behavior (kFail).
  ///
  /// The message is silently lost in flight; the sender learns only
  /// through missing acks/timeouts.
  kDrop,
  /// The message is delivered twice — receivers must be idempotent.
  kDuplicate,
  /// The message is held back and delivered after later traffic on the
  /// same link (out-of-order delivery).
  kReorder,
  /// The link behaves as fully partitioned: every eligible message is
  /// dropped until the point is disarmed. Semantically kDrop with
  /// repeat, kept distinct so chaos schedules read naturally.
  kPartition,
  /// The device reports ENOSPC: the guarded operation fails with a
  /// storage-origin kResourceExhausted (Status::StorageExhausted)
  /// before any bytes reach disk. Meaningful at op- and write-shaped
  /// points (file.write, file.fsync, wal.append, sstable.flush,
  /// compaction.write); reads degrade to kFail, transports to kDrop.
  /// The resource subsystem's chaos tests use this to fill the "disk"
  /// deterministically mid-workload.
  kNoSpace,
};

struct FaultSpec {
  FaultKind kind = FaultKind::kFail;
  /// Fire on the nth eligible hit, 1-based. 0 = every eligible hit.
  int fail_nth = 1;
  /// Per-hit probability of being eligible (drawn from the injector's
  /// seeded Rng, so runs are reproducible).
  double probability = 1.0;
  /// kTornWrite: fraction of the payload that survives, in [0, 1).
  double keep_fraction = 0.5;
  /// kDelay: how long the guarded operation is stalled.
  double delay_ms = 0.0;
  /// When false (default) the spec disarms itself after firing once;
  /// when true it keeps firing on every eligible hit >= fail_nth.
  bool repeat = false;
};

/// What a transport-shaped fault point tells the caller to do with the
/// message it is about to deliver.
enum class TransportFaultAction {
  kNone,       // deliver normally
  kDrop,       // lose the message silently
  kDuplicate,  // deliver it twice
  kReorder,    // deliver it after later traffic on the link
  kDelay,      // deliver it `delay_ms` late
};

struct TransportFault {
  TransportFaultAction action = TransportFaultAction::kNone;
  /// kDelay: how late the message lands.
  double delay_ms = 0.0;
};

/// One entry in the static catalog of fault points the platform
/// exposes (see KnownFaultPoints). `shape` is which Inject* call
/// guards it: "op", "write", "read", or "transport".
struct FaultPointInfo {
  const char* name;
  const char* shape;
  const char* description;
};

/// Outcome of a fault check at a write-shaped fault point.
struct WriteFault {
  /// Caller must report an injected error after honoring the payload.
  bool fail = false;
  /// Caller should still write the (possibly mutated) payload — true
  /// for torn writes and bit flips, false for plain failures.
  bool write_payload = true;
  /// The injected failure is ENOSPC (kNoSpace): the caller must report
  /// Status::StorageExhausted instead of a generic IOError, so the
  /// retry layer's storage-origin gate and the disk-space governor's
  /// degraded-mode trip both see the right shape.
  bool no_space = false;
};

/// Deterministic, seeded fault injector with named fault points.
///
/// Production code guards IO edges with `Faults().armed()` (a relaxed
/// atomic load — effectively free when nothing is armed) and then asks
/// the injector whether the named point fires. Tests arm points with
/// `Arm`/`ScopedFault` and drive crash/corruption scenarios without
/// touching real hardware.
///
/// Fault point names used by the platform are documented in DESIGN.md
/// ("Durability & failure model"): file.write, file.rename, file.read,
/// file.remove, file.fsync, file.dirsync, wal.open, wal.append,
/// wal.sync, sst.build, sst.open, sstable.flush, compaction.write,
/// serving.index_build, the latency-injectable serving hot points
/// ann.search, kv.read, graph.traverse, and the read-side corruption
/// points sstable.read_block, wal.replay, embedding.load (see
/// DESIGN.md "Integrity & versioned deployment" and "Resource
/// exhaustion & degraded modes").
///
/// Thread-safe; all state sits behind one mutex (fault paths are not
/// hot paths once armed).
class FaultInjector {
 public:
  FaultInjector() : rng_(0xFA17) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Harness control: reseeds the eligibility Rng (probability draws
  /// and torn/bit-flip positions), making randomized chaos runs
  /// reproducible.
  void Seed(uint64_t seed);

  void Arm(const std::string& point, FaultSpec spec);
  void Disarm(const std::string& point);
  void DisarmAll();

  /// Arms a repeating latency fault: every hit of `point` stalls the
  /// calling thread for `ms` until the point is disarmed.
  void InjectDelay(const std::string& point, double ms);

  /// Cheap global check: true when at least one point is armed.
  bool armed() const {
    return armed_points_.load(std::memory_order_relaxed) > 0;
  }

  /// Pure-failure fault points (rename, fsync, remove, open...).
  /// Returns the injected error when the point fires, OK otherwise.
  /// Torn-write/bit-flip specs on such points degrade to kFail; a
  /// kDelay spec sleeps (outside the injector lock) and returns OK.
  Status InjectOp(const std::string& point);

  /// Write-shaped fault points. May truncate (torn write) or bit-flip
  /// `payload` in place; see WriteFault for what the caller must do.
  WriteFault InjectWrite(const std::string& point, std::string* payload);

  /// Read-shaped fault points guarding bytes already in memory. A
  /// kCorrupt (or kBitFlip/kTornWrite, which degrade to it) spec flips
  /// one bit inside [data, data+len) and returns OK — the caller's
  /// checksum verification is what must notice. kFail returns the
  /// injected IOError; kDelay stalls then returns OK.
  Status InjectRead(const std::string& point, char* data, size_t len);

  /// Transport-shaped fault points (message sends on the simulated
  /// network). Never sleeps — a kDelay spec is returned as a
  /// TransportFaultAction::kDelay so the transport can schedule the
  /// late delivery on its own logical clock instead of stalling the
  /// sender. kFail/kPartition degrade to kDrop (a frame that never
  /// arrives); kBitFlip/kCorrupt/kTornWrite also degrade to kDrop (a
  /// garbled frame fails its checksum and is discarded by the
  /// receiver).
  TransportFault InjectTransport(const std::string& point);

  /// Times the point fired (for assertions).
  uint64_t fires(const std::string& point) const;

  /// Currently armed point names, sorted (for `saga_cli faults list`).
  std::vector<std::string> ArmedPoints() const;

 private:
  struct Armed {
    FaultSpec spec;
    uint64_t eligible_hits = 0;
  };

  /// Returns the spec if the point fires on this hit (and handles
  /// one-shot disarm); nullopt otherwise.
  std::optional<FaultSpec> Check(const std::string& point);

  mutable std::mutex mu_;
  std::map<std::string, Armed> points_;
  std::map<std::string, uint64_t> fires_;
  std::atomic<int> armed_points_{0};
  Rng rng_;
};

/// Process-wide injector instance shared by all guarded IO edges.
FaultInjector& Faults();

/// Static catalog of every fault point the platform guards, so chaos
/// runs (and `saga_cli faults list`) can discover injection sites
/// without grepping the source. Kept in sync with the call sites by
/// fault_injection_test's catalog cross-check.
const std::vector<FaultPointInfo>& KnownFaultPoints();

/// RAII arm/disarm of one fault point.
class ScopedFault {
 public:
  ScopedFault(std::string point, FaultSpec spec) : point_(std::move(point)) {
    Faults().Arm(point_, spec);
  }
  ~ScopedFault() { Faults().Disarm(point_); }

  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  std::string point_;
};

}  // namespace saga

/// The subsystem is usually referred to as saga::common::FaultInjector
/// in design docs; keep that spelling valid.
namespace saga::common {
using ::saga::FaultInjector;
using ::saga::FaultKind;
using ::saga::FaultSpec;
using ::saga::ScopedFault;
}  // namespace saga::common

#endif  // SAGA_COMMON_FAULT_INJECTION_H_
