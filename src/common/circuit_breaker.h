#ifndef SAGA_COMMON_CIRCUIT_BREAKER_H_
#define SAGA_COMMON_CIRCUIT_BREAKER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "common/metrics.h"
#include "common/status.h"

namespace saga {

/// Classic closed / open / half-open circuit breaker guarding a
/// dependency (the ANN index of EmbeddingService). While closed, calls
/// flow and consecutive failures are counted; at `failure_threshold`
/// the breaker opens and Allow() fails fast with Status::Unavailable —
/// the caller falls back (exact search) instead of piling onto a
/// struggling dependency. After `open_ms` of cool-down the breaker lets
/// one half-open probe through at a time; a probe success closes it
/// again, a probe failure re-opens it and restarts the cool-down.
///
/// Observability: the breaker registers five process-global metrics
/// derived from its metric stem (which must follow the
/// `subsystem.breaker.name` scheme, e.g. "serving.breaker.ann"):
///   <stem>_state      gauge    0 closed / 1 open / 2 half-open
///   <stem>_opened     counter  times the breaker tripped
///   <stem>_rejected   counter  calls fast-failed while open
///   <stem>_failures   counter  recorded failures
///   <stem>_successes  counter  recorded successes
///
/// Thread-safe: all state behind one mutex; the expected call pattern
/// (Allow, run the op, RecordSuccess/RecordFailure) never holds the
/// lock across the guarded operation. The clock is injectable so tests
/// drive the state machine without sleeping.
class CircuitBreaker {
 public:
  enum class State : int {
    kClosed = 0,
    kOpen = 1,
    kHalfOpen = 2,
  };

  struct Options {
    /// Consecutive failures (while closed) that trip the breaker.
    int failure_threshold = 5;
    /// Cool-down while open before half-open probes are admitted.
    double open_ms = 1000.0;
    /// Injectable monotonic clock (nanoseconds) for tests.
    std::function<uint64_t()> now_ns;
  };

  /// `metric_stem` names the exported metrics (see class comment) and
  /// appears in fast-fail error messages.
  CircuitBreaker(std::string metric_stem, Options options);

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// Gatekeeper: OK when the call may proceed (closed, or admitted as a
  /// half-open probe), Unavailable when the caller must fail fast.
  Status Allow();

  /// Report the outcome of a call that Allow() admitted.
  void RecordSuccess();
  void RecordFailure();
  /// An admitted call that never reached the dependency has no
  /// outcome: neither counter moves, but a half-open probe slot it held
  /// is freed for the next caller.
  void RecordNoOutcome();

  State state() const;

  /// Which statuses count as dependency failures: business outcomes
  /// (NotFound, InvalidArgument, ...) are successes; infrastructure
  /// trouble (IOError, Corruption, ResourceExhausted, DeadlineExceeded,
  /// Internal) is a failure.
  static bool IsFailure(const Status& s);

 private:
  uint64_t NowNs() const;
  /// Transitions with mu_ held; updates the state gauge.
  void TransitionLocked(State next, uint64_t now);

  const std::string stem_;
  Options options_;
  obs::Gauge& state_gauge_;
  obs::Counter& opened_counter_;
  obs::Counter& rejected_counter_;
  obs::Counter& failures_counter_;
  obs::Counter& successes_counter_;

  mutable std::mutex mu_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int half_open_in_flight_ = 0;
  uint64_t opened_at_ns_ = 0;
};

}  // namespace saga

#endif  // SAGA_COMMON_CIRCUIT_BREAKER_H_
