#ifndef SAGA_COMMON_RETRY_H_
#define SAGA_COMMON_RETRY_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/rng.h"
#include "common/status.h"

namespace saga {

/// Capped exponential backoff with seeded jitter. Used wherever a
/// transient IO failure should be absorbed instead of surfaced: KV
/// store open/flush, SSTable reads during recovery, and the serving
/// tier's ANN index build.
///
/// The sleep function is injectable so tests (and the chaos harness)
/// retry instantly while production callers actually back off.
class RetryPolicy {
 public:
  /// Total tries, including the first.
  static constexpr int kMaxAttempts = 3;
  static constexpr double kInitialBackoffMs = 1.0;
  static constexpr double kBackoffMultiplier = 2.0;
  static constexpr double kMaxBackoffMs = 50.0;
  /// Uniform jitter of +/- this fraction around the backoff.
  static constexpr double kJitterFraction = 0.2;
  static constexpr uint64_t kJitterSeed = 42;

  using SleepFn = std::function<void(double millis)>;
  using RetryablePredicate = std::function<bool(const Status&)>;

  /// Null `sleep` means really sleep (std::this_thread).
  explicit RetryPolicy(SleepFn sleep = nullptr);

  /// Runs `op` until it succeeds, fails with a non-retryable status, or
  /// attempts are exhausted; returns the last status. Each retry (not
  /// first attempts) bumps the global `resource.retry.attempts`
  /// counter. `retryable` defaults to IsRetryable.
  Status Run(const std::string& op_name, const std::function<Status()>& op,
             const RetryablePredicate& retryable = nullptr);

  /// Backoff for the given 1-based completed attempt, jitter included.
  /// Deterministic for a fixed call sequence.
  double BackoffMs(int attempt);

  /// Default classification: IOError and ResourceExhausted are worth
  /// retrying; corruption and programmer errors are not. This is the
  /// complete retryable set — every other StatusCode (pinned by a unit
  /// test) is permanent from the retry layer's point of view. Note the
  /// NeverRetryable gate below still wins: a ResourceExhausted whose
  /// origin is storage (full disk) or an IOError whose origin is a
  /// failed fsync is code-retryable but origin-fatal.
  static bool IsRetryable(const Status& s) {
    return !NeverRetryable(s) &&
           (s.code() == StatusCode::kIOError ||
            s.code() == StatusCode::kResourceExhausted);
  }

  /// Statuses no predicate may override; checked inside Run() even
  /// when a custom RetryablePredicate says yes. kDataLoss: the same
  /// rotten bytes come back and retries mask real data loss.
  /// kStorageExhausted: a full disk stays full until something
  /// *reclaims* space — retrying burns CPU against a wall and delays
  /// the reclaim path that actually helps. kFsyncGate: after a failed
  /// fsync the kernel may have dropped the dirty pages, so a retried
  /// fsync on the same fd can report success for bytes that are gone.
  static bool NeverRetryable(const Status& s) {
    return s.code() == StatusCode::kDataLoss ||
           s.origin() == StatusOrigin::kStorageExhausted ||
           s.origin() == StatusOrigin::kFsyncGate;
  }

 private:
  SleepFn sleep_;
  Rng rng_;
};

}  // namespace saga

#endif  // SAGA_COMMON_RETRY_H_
