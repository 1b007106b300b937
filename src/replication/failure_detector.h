#ifndef SAGA_REPLICATION_FAILURE_DETECTOR_H_
#define SAGA_REPLICATION_FAILURE_DETECTOR_H_

#include <cstdint>

namespace saga::replication {

/// Heartbeat-based failure detector over the group's logical clock.
///
/// The monitored peer is expected to be heard from (heartbeat, append,
/// ack — any message counts) at least once per timeout window
/// (kTimeoutMs; a follower's leader detector stretches it by a jitter).
/// Every elapsed timeout window without contact adds one suspicion; at
/// kSuspicionThreshold the peer is Suspected(). A single late packet
/// is therefore never enough to declare a peer dead — with a threshold
/// of 3 the peer must stay silent for three full windows — while a
/// real crash or partition is detected in bounded time:
/// timeout * kSuspicionThreshold after the last contact.
///
/// Any contact resets suspicion to zero (trust recovers instantly;
/// distrust accumulates). Used twice in the tier: followers monitor
/// the leader (an expired detector starts an election) and the leader
/// monitors each follower (suspected followers are excluded from
/// serving reads until they ack again).
class FailureDetector {
 public:
  static constexpr double kTimeoutMs = 50.0;
  static constexpr int kSuspicionThreshold = 3;

  explicit FailureDetector(double timeout_ms = kTimeoutMs)
      : timeout_ms_(timeout_ms) {}

  /// Contact from the monitored peer: resets suspicion and restarts
  /// the current timeout window at `now_ms`.
  void RecordContact(double now_ms) {
    window_start_ms_ = now_ms;
    suspicion_ = 0;
  }

  /// Forgets all history (fresh peer, or a role change): the first
  /// window starts at `now_ms`.
  void Reset(double now_ms) { RecordContact(now_ms); }

  /// Advances the detector to `now_ms`, accumulating one suspicion per
  /// fully elapsed silent timeout window. Returns true when the
  /// suspicion threshold is crossed *by this call* (edge trigger, so
  /// the caller starts exactly one election per detection).
  bool Tick(double now_ms) {
    const bool was_suspected = Suspected();
    while (now_ms - window_start_ms_ >= timeout_ms_) {
      window_start_ms_ += timeout_ms_;
      ++suspicion_;
    }
    return !was_suspected && Suspected();
  }

  bool Suspected() const {
    return suspicion_ >= kSuspicionThreshold;
  }

 private:
  double timeout_ms_;
  double window_start_ms_ = 0;
  int suspicion_ = 0;
};

}  // namespace saga::replication

#endif  // SAGA_REPLICATION_FAILURE_DETECTOR_H_
