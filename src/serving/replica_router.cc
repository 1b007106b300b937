#include "serving/replica_router.h"

#include "common/metrics.h"

namespace saga::serving {

int ReplicaRouter::PickRead(const std::vector<ReplicaView>& replicas) {
  int leader = -1;
  int fallback = -1;
  uint64_t fallback_lag = 0;
  std::vector<int> eligible;
  eligible.reserve(replicas.size());
  for (const ReplicaView& r : replicas) {
    if (r.is_leader && r.healthy) leader = r.id;
    if (r.is_leader) continue;
    // Unhealthy followers are simply not candidates — neither eligible
    // nor a fallback, and not a "stale" skip (that counter tracks the
    // staleness bound doing its job, not dead replicas).
    if (!r.healthy) continue;
    // Any healthy follower, however far behind, beats failing the read
    // outright if the leader also turns out to be down.
    if (fallback < 0 || r.lag_records < fallback_lag) {
      fallback = r.id;
      fallback_lag = r.lag_records;
    }
    if (r.lag_records > kMaxStalenessRecords) {
      SAGA_COUNTER("serving.replica_router.stale_skips").Add();
      continue;
    }
    eligible.push_back(r.id);
  }
  if (!eligible.empty()) {
    SAGA_COUNTER("serving.replica_router.follower_reads").Add();
    return eligible[rr_++ % eligible.size()];
  }
  if (leader >= 0) {
    SAGA_COUNTER("serving.replica_router.leader_reads").Add();
    return leader;
  }
  if (fallback >= 0) {
    SAGA_COUNTER("serving.replica_router.stale_fallbacks").Add();
    return fallback;
  }
  return -1;
}

}  // namespace saga::serving
