#include "common/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/metrics.h"

namespace saga {

RetryPolicy::RetryPolicy(SleepFn sleep)
    : sleep_(std::move(sleep)), rng_(kJitterSeed) {}

double RetryPolicy::BackoffMs(int attempt) {
  double base = kInitialBackoffMs;
  for (int i = 1; i < attempt; ++i) base *= kBackoffMultiplier;
  base = std::min(base, kMaxBackoffMs);
  return base * (1.0 + rng_.UniformDouble(-kJitterFraction, kJitterFraction));
}

Status RetryPolicy::Run(const std::string& op_name,
                        const std::function<Status()>& op,
                        const RetryablePredicate& retryable) {
  Status last;
  for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
    last = op();
    if (last.ok()) return last;
    const bool worth_retry =
        !NeverRetryable(last) && (retryable ? retryable(last) : IsRetryable(last));
    if (!worth_retry || attempt == kMaxAttempts) return last;
    SAGA_COUNTER("resource.retry.attempts").Add();
    const double backoff = BackoffMs(attempt);
    SAGA_LOG(Warning) << op_name << " attempt " << attempt << "/" << kMaxAttempts
                      << " failed (" << last.ToString() << "); retrying in "
                      << backoff << "ms";
    if (sleep_) {
      sleep_(backoff);
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(backoff));
    }
  }
  return last;
}

}  // namespace saga
