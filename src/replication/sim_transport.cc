#include "replication/sim_transport.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "common/metrics.h"

namespace saga::replication {

namespace {

/// Base one-way latency stamped on every message.
constexpr double kBaseDelayMs = 1.0;
/// How late a reordered (or duplicated) copy lands, relative to base
/// delay: uniform in [0, kReorderSpreadMs).
constexpr double kReorderSpreadMs = 5.0;

}  // namespace

SimTransport::SimTransport(uint64_t seed) : rng_(seed) {}

void SimTransport::Register(int node, Handler handler) {
  handlers_[node] = std::move(handler);
}

void SimTransport::Enqueue(const Message& m, double deliver_at_ms) {
  queue_.push_back(InFlight{deliver_at_ms, next_tie_++, m});
}

void SimTransport::Send(const Message& m, double now_ms) {
  SAGA_COUNTER("replication.transport.sent").Add();
  if (Partitioned(m.from, m.to)) {
    SAGA_COUNTER("replication.transport.partitioned").Add();
    return;
  }

  double deliver_at = now_ms + kBaseDelayMs;
  if (jitter_ms_ > 0) deliver_at += rng_.UniformDouble(0, jitter_ms_);
  bool duplicate = false;
  bool reorder = false;

  // Layer 1: per-link probabilistic faults from the transport's seed.
  if (drop_p_ > 0 && rng_.Bernoulli(drop_p_)) {
    SAGA_COUNTER("replication.transport.dropped").Add();
    return;
  }
  if (duplicate_p_ > 0 && rng_.Bernoulli(duplicate_p_)) duplicate = true;
  if (reorder_p_ > 0 && rng_.Bernoulli(reorder_p_)) reorder = true;

  // Layer 2: the process-wide injector (`transport.send`), same
  // arming surface as every disk fault point.
  if (Faults().armed()) {
    const TransportFault f = Faults().InjectTransport("transport.send");
    switch (f.action) {
      case TransportFaultAction::kNone:
        break;
      case TransportFaultAction::kDrop:
        SAGA_COUNTER("replication.transport.dropped").Add();
        return;
      case TransportFaultAction::kDuplicate:
        duplicate = true;
        break;
      case TransportFaultAction::kReorder:
        reorder = true;
        break;
      case TransportFaultAction::kDelay:
        deliver_at += f.delay_ms;
        break;
    }
  }

  if (reorder) {
    // Land after traffic sent later on the same link: push delivery
    // past the base delay by a seeded spread.
    deliver_at += rng_.UniformDouble(0, kReorderSpreadMs);
    SAGA_COUNTER("replication.transport.reordered").Add();
  }
  Enqueue(m, deliver_at);
  if (duplicate) {
    SAGA_COUNTER("replication.transport.duplicated").Add();
    Enqueue(m, deliver_at + rng_.UniformDouble(0, kReorderSpreadMs));
  }
}

size_t SimTransport::DeliverDue(double now_ms) {
  // Split due / not-due first: handlers may Send() reentrantly, and
  // those messages must wait for a later pump (a reply can never
  // outrun the message it answers).
  std::vector<InFlight> due;
  std::vector<InFlight> later;
  later.reserve(queue_.size());
  for (InFlight& f : queue_) {
    if (f.deliver_at_ms <= now_ms) {
      due.push_back(std::move(f));
    } else {
      later.push_back(std::move(f));
    }
  }
  queue_ = std::move(later);
  std::sort(due.begin(), due.end(), [](const InFlight& a, const InFlight& b) {
    return a.deliver_at_ms != b.deliver_at_ms
               ? a.deliver_at_ms < b.deliver_at_ms
               : a.tie < b.tie;
  });
  size_t delivered = 0;
  for (const InFlight& f : due) {
    // A cut made after the send still swallows in-flight frames.
    if (Partitioned(f.msg.from, f.msg.to)) {
      SAGA_COUNTER("replication.transport.partitioned").Add();
      continue;
    }
    auto it = handlers_.find(f.msg.to);
    if (it == handlers_.end() || !it->second) continue;
    it->second(f.msg);
    ++delivered;
    SAGA_COUNTER("replication.transport.delivered").Add();
  }
  return delivered;
}

void SimTransport::Partition(int a, int b) {
  if (a == b) return;
  cuts_.insert(LinkKey(a, b));
}

void SimTransport::PartitionNode(int n, int num_nodes) {
  for (int i = 0; i < num_nodes; ++i) {
    if (i != n) cuts_.insert(LinkKey(n, i));
  }
}

void SimTransport::Heal(int a, int b) { cuts_.erase(LinkKey(a, b)); }

void SimTransport::HealAll() { cuts_.clear(); }

bool SimTransport::Partitioned(int a, int b) const {
  return cuts_.count(LinkKey(a, b)) > 0;
}

void SimTransport::SetFaultProfile(double drop_p, double duplicate_p,
                                   double reorder_p, double jitter_ms) {
  drop_p_ = drop_p;
  duplicate_p_ = duplicate_p;
  reorder_p_ = reorder_p;
  jitter_ms_ = jitter_ms;
}

}  // namespace saga::replication
