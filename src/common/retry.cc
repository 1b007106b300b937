#include "common/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/circuit_breaker.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace saga {

RetryPolicy::RetryPolicy(Options options, SleepFn sleep)
    : options_(options),
      sleep_(std::move(sleep)),
      rng_(options.jitter_seed) {}

double RetryPolicy::BackoffMs(int attempt) {
  double base = options_.initial_backoff_ms;
  for (int i = 1; i < attempt; ++i) base *= options_.backoff_multiplier;
  base = std::min(base, options_.max_backoff_ms);
  const double jitter =
      rng_.UniformDouble(-options_.jitter_fraction, options_.jitter_fraction);
  return std::max(0.0, base * (1.0 + jitter));
}

Status RetryPolicy::Run(const std::string& op_name,
                        const std::function<Status()>& op,
                        const RetryablePredicate& retryable) {
  const int attempts = std::max(1, options_.max_attempts);
  Status last;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    last = op();
    if (last.ok()) return last;
    const bool worth_retry =
        !NeverRetryable(last) && (retryable ? retryable(last) : IsRetryable(last));
    if (!worth_retry || attempt == attempts) return last;
    ++total_retries_;
    SAGA_COUNTER("resource.retry.attempts").Add();
    const double backoff = BackoffMs(attempt);
    SAGA_LOG(Warning) << op_name << " attempt " << attempt << "/" << attempts
                      << " failed (" << last.ToString() << "); retrying in "
                      << backoff << "ms";
    if (sleep_) {
      sleep_(backoff);
    } else if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(backoff));
    }
  }
  return last;
}

Status RetryPolicy::Run(const std::string& op_name,
                        const std::function<Status()>& op,
                        CircuitBreaker* breaker,
                        const RetryablePredicate& retryable) {
  if (breaker == nullptr) return Run(op_name, op, retryable);
  const RetryablePredicate base =
      retryable ? retryable : RetryablePredicate(&RetryPolicy::IsRetryable);
  return Run(
      op_name, [&] { return breaker->Run(op); },
      [&base](const Status& s) {
        // An open breaker means "stop calling" — never retry through it.
        return !s.IsUnavailable() && base(s);
      });
}

}  // namespace saga
