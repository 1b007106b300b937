#ifndef SAGA_REPLICATION_SIM_TRANSPORT_H_
#define SAGA_REPLICATION_SIM_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "replication/message.h"

namespace saga::replication {

/// Deterministic in-process network for a replica group.
///
/// Every Send() stamps the message with a logical delivery time and
/// queues it; DeliverDue(now) hands all due messages to the registered
/// handlers in (deliver_at, enqueue order) — so a fixed seed and a
/// fixed call sequence replay the exact same delivery schedule, fault
/// for fault. No threads, no wall clock: the replica group advances a
/// logical clock and pumps the queue, which is what makes 200-round
/// chaos schedules replayable from one printed seed (and trivially
/// TSan-clean).
///
/// Faults come from three layers, all seeded:
///  - structural partitions (Partition/PartitionNode/Heal*): messages
///    crossing a cut are dropped — checked both at send and at
///    delivery, so healing mid-flight does not resurrect frames that
///    were in a dead link;
///  - per-link probabilistic faults (SetFaultProfile: drop /
///    duplicate / reorder / extra-delay), drawn from the transport's
///    own Rng;
///  - the process-wide injector: when armed, every send consults the
///    `transport.send` fault point, so chaos tests arm
///    FaultKind::kDrop / kDuplicate / kReorder / kDelay / kPartition
///    exactly like disk faults.
///
/// Handlers may Send() reentrantly (a replica acking an append);
/// those messages are queued with fresh delivery times and land on a
/// later pump, never inside the same delivery instant — replies can
/// not outrun the message they answer.
///
/// Counters: `replication.transport.sent`, `.delivered`, `.dropped`
/// (probabilistic and injector drops), `.duplicated`, `.reordered` and
/// `.partitioned` (drops at a structural cut).
class SimTransport {
 public:
  using Handler = std::function<void(const Message&)>;

  /// `seed` drives the probabilistic faults; all are off until
  /// SetFaultProfile.
  explicit SimTransport(uint64_t seed);

  SimTransport(const SimTransport&) = delete;
  SimTransport& operator=(const SimTransport&) = delete;

  /// Registers (or replaces) the delivery handler for `node`.
  void Register(int node, Handler handler);

  /// Queues `m` for delivery at now + latency, applying faults.
  /// `now_ms` is the sender's logical clock.
  void Send(const Message& m, double now_ms);

  /// Delivers every queued message with deliver_at <= now_ms, in
  /// deterministic order. Returns the number delivered.
  size_t DeliverDue(double now_ms);

  // --- structural partitions (harness controls the chaos loops drive) ---
  /// Cuts the (bidirectional) link between a and b.
  void Partition(int a, int b);
  /// Cuts every link touching `n` (node isolated / killed NIC).
  void PartitionNode(int n, int num_nodes);
  void Heal(int a, int b);
  void HealAll();
  bool Partitioned(int a, int b) const;

  /// Harness control: sets the per-message fault probabilities (0
  /// disables each) and the uniform extra latency in [0, jitter_ms).
  /// Chaos rounds re-roll these per round.
  void SetFaultProfile(double drop_p, double duplicate_p, double reorder_p,
                       double jitter_ms);

 private:
  struct InFlight {
    double deliver_at_ms = 0;
    uint64_t tie = 0;  // enqueue order, breaks deliver_at ties
    Message msg;
  };

  static std::pair<int, int> LinkKey(int a, int b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }
  void Enqueue(const Message& m, double deliver_at_ms);

  double drop_p_ = 0.0;
  double duplicate_p_ = 0.0;
  double reorder_p_ = 0.0;
  double jitter_ms_ = 0.0;
  Rng rng_;
  std::map<int, Handler> handlers_;
  std::vector<InFlight> queue_;
  std::set<std::pair<int, int>> cuts_;
  uint64_t next_tie_ = 0;
};

}  // namespace saga::replication

#endif  // SAGA_REPLICATION_SIM_TRANSPORT_H_
