#ifndef SAGA_REPLICATION_REPLICA_GROUP_H_
#define SAGA_REPLICATION_REPLICA_GROUP_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "replication/replica.h"
#include "replication/sim_transport.h"
#include "serving/replica_router.h"

namespace saga::replication {

/// A leader/follower replica group serving a replicated KV surface —
/// the process-local reproduction of "no single copy of the store is
/// ever load-bearing".
///
/// The group owns N Replicas, the SimTransport wiring them, a logical
/// clock, and per-replica applied KV state; it exposes:
///
///  - Put with acked-write semantics: the call appends at the
///    leader and pumps the simulation until the record is
///    quorum-committed (observed on any live replica) or the logical
///    timeout passes. An OK from Put is the invariant the chaos suite
///    hammers: "no acked write is ever lost across any single failure
///    + partition schedule".
///  - Get routed through serving::ReplicaRouter: healthy followers
///    within the bounded-staleness window serve reads round-robin;
///    lagging or suspected followers are skipped and the leader
///    serves instead; a leaderless group answers Unavailable rather
///    than risk unbounded staleness.
///  - Chaos controls (Crash/Restart/Partition/HealAll/fault profile)
///    and a Step() pump, all on the logical clock, so a whole failure
///    schedule replays from one seed.
///
/// Leader logs are never compacted, so a ship cursor can always back
/// up to where a lagging follower's log ends.
///
/// Observability (updated every Step):
///   replication.group.epoch / commit_seq / leader_index gauges,
///   replication.group.max_lag_records gauge,
///   replication.group.failovers counter (+ last_failover_unix_ms),
///   replication.group.acked_puts / rejected_puts counters,
///   replication.health.replica_<i> per-replica health gauges,
///   replication.lag.replica_<i> per-replica lag gauges,
///   replication.transport.* counters (from SimTransport).
class ReplicaGroup {
 public:
  struct Options {
    int num_replicas = 3;
    uint64_t seed = 0x5A6A;
    /// Non-empty: replica logs are real storage WALs under this
    /// directory (replica_<i>.wal), and Restart() recovers from disk.
    std::string dir;
  };

  static Result<std::unique_ptr<ReplicaGroup>> Create(Options options);

  ReplicaGroup(const ReplicaGroup&) = delete;
  ReplicaGroup& operator=(const ReplicaGroup&) = delete;

  /// Quorum-acked write: OK means the record is committed on a quorum
  /// of logs and will survive any single failure; Unavailable means
  /// not acknowledged (it may still commit later — the caller must
  /// treat it as unknown, exactly like a timed-out RPC).
  Status Put(std::string_view key, std::string_view value);

  /// Routed read (see class comment). NotFound for absent keys,
  /// Unavailable when no replica may serve.
  Result<std::string> Get(std::string_view key);
  /// Direct read of one replica's applied state (tests / debugging).
  Result<std::string> GetAt(int replica_id, std::string_view key) const;

  // --- chaos controls (harness controls the chaos loops drive) ---
  void Crash(int replica_id);
  Status Restart(int replica_id);
  /// Cuts replica_id off from everyone (its links only).
  void PartitionNode(int replica_id);
  /// Cuts the links between every pair across the two sides.
  void PartitionSides(const std::vector<int>& a, const std::vector<int>& b);
  void HealAll();
  /// Re-rolls the probabilistic link faults (chaos rounds).
  void SetFaultProfile(double drop_p, double duplicate_p, double reorder_p,
                       double jitter_ms);

  // --- simulation pump ---
  /// Advances the logical clock by `ms`, ticking replicas and
  /// delivering due messages each simulated millisecond.
  void Step(double ms);
  /// Steps until pred() or the logical deadline; true when pred held.
  bool StepUntil(const std::function<bool()>& pred, double max_ms);
  double now_ms() const { return now_ms_; }

  // --- introspection ---
  /// Alive leader of the highest epoch, or -1. During a partition a
  /// fenced ex-leader may still believe it leads; it is not returned.
  int LeaderId() const;
  uint64_t epoch() const;
  /// Highest commit index over alive replicas.
  uint64_t CommitSeq() const;
  /// Committed records `replica_id` trails the group commit by.
  uint64_t LagOf(int replica_id) const;
  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  Replica& replica(int i) { return *replicas_[i]; }

  /// Router-facing snapshot of per-replica state.
  std::vector<serving::ReplicaRouter::ReplicaView> Views() const;

  /// An encoded Put (exposed for tests that append raw records).
  static std::string EncodePut(std::string_view key, std::string_view value);

 private:
  explicit ReplicaGroup(Options options);

  Status AppendOp(std::string op);
  void ApplyRecord(int replica_id, const LogRecord& record);
  void TrackFailover();
  void UpdateMetrics();

  Options options_;
  double now_ms_ = 0;
  SimTransport transport_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  /// Applied (committed-only) KV state per replica.
  std::vector<std::map<std::string, std::string, std::less<>>> applied_;
  serving::ReplicaRouter router_;
  int last_leader_ = -1;
  uint64_t last_leader_epoch_ = 0;
};

}  // namespace saga::replication

#endif  // SAGA_REPLICATION_REPLICA_GROUP_H_
