#ifndef SAGA_SERVING_REPLICA_ROUTER_H_
#define SAGA_SERVING_REPLICA_ROUTER_H_

#include <cstdint>
#include <vector>

namespace saga::serving {

/// Read-routing policy for a replica group: spread reads over healthy
/// followers whose replication lag is inside the staleness bound, fall
/// back to the leader for everything else.
///
/// The router is deliberately decoupled from saga::replication — it
/// consumes a plain snapshot of per-replica state (ReplicaView) so the
/// serving tier (embedding cache / KV reads) can route against any
/// source of replica health: the in-process ReplicaGroup today, a real
/// cluster membership service later.
///
/// Guarantee the chaos suite pins: while a healthy leader exists,
/// PickRead never returns a follower whose `lag_records` exceeds
/// `kMaxStalenessRecords`, and it never returns one marked unhealthy
/// (down or suspected by the leader's failure detector) — such reads
/// land on the leader instead. Reads from a chosen follower are
/// therefore bounded-stale in steady state: at most
/// `kMaxStalenessRecords` behind the group commit index at routing
/// time, and never from a divergent (uncommitted) tail, since lag is
/// measured in committed records. Last resort only — leader down AND
/// no follower inside the bound — the router degrades to the
/// least-stale healthy follower rather than failing the read:
/// availability over freshness, but only once freshness is unattainable.
///
/// Each decision counts in `serving.replica_router.*`: `follower_reads`,
/// `leader_reads`, `stale_fallbacks` (reads served past the bound) and
/// `stale_skips` (healthy followers passed over for lag; unhealthy
/// replicas are not candidates and are not counted).
class ReplicaRouter {
 public:
  struct ReplicaView {
    int id = -1;
    bool is_leader = false;
    /// Alive and not suspected by the leader's per-peer detector.
    bool healthy = false;
    /// Committed records this replica is behind the group commit.
    uint64_t lag_records = 0;
  };

  /// Max committed-record lag a follower may have and still serve.
  static constexpr uint64_t kMaxStalenessRecords = 64;

  /// Picks the replica id to serve a read: round-robin over eligible
  /// followers, else the leader, else the least-stale healthy follower
  /// (stale fallback), else -1 (no one can serve — caller surfaces
  /// Unavailable).
  int PickRead(const std::vector<ReplicaView>& replicas);

 private:
  uint64_t rr_ = 0;
};

}  // namespace saga::serving

#endif  // SAGA_SERVING_REPLICA_ROUTER_H_
