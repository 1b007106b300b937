#ifndef SAGA_COMMON_REQUEST_CONTEXT_H_
#define SAGA_COMMON_REQUEST_CONTEXT_H_

#include <chrono>
#include <string_view>

#include "common/status.h"

namespace saga {

/// Monotonic-clock request deadline. Value-semantic and cheap to copy;
/// the default-constructed deadline is infinite, so code that threads a
/// Deadline through unconditionally pays nothing for callers that never
/// set one (`expired()` on an infinite deadline is one comparison).
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Infinite: never expires.
  Deadline() : at_(Clock::time_point::max()) {}
  explicit Deadline(Clock::time_point at) : at_(at) {}

  static Deadline AfterMillis(double ms) {
    return Deadline(Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(ms)));
  }

  bool infinite() const { return at_ == Clock::time_point::max(); }
  bool expired() const { return !infinite() && Clock::now() >= at_; }

  /// Remaining budget in milliseconds. Negative once overdue; a very
  /// large positive value when infinite (callers usually guard with
  /// infinite() first).
  double RemainingMillis() const {
    if (infinite()) return kInfiniteMillis;
    return std::chrono::duration<double, std::milli>(at_ - Clock::now())
        .count();
  }

  static constexpr double kInfiniteMillis = 1e18;

 private:
  Clock::time_point at_;
};

/// Two serving priority classes (paper §6: interactive queries under
/// strict SLAs vs. background/bulk work). High-priority traffic keeps
/// its latency budget under overload; low-priority traffic is shed
/// first by the AdmissionController.
enum class Priority {
  kHigh = 0,
  kLow = 1,
};

/// Per-request context threaded through the serving tier: deadline and
/// priority class. Pass by value or const reference freely.
///
/// Long loops check cooperatively at loop boundaries:
///
///   for (...) {
///     if ((steps++ & 63) == 0) SAGA_RETURN_IF_ERROR(ctx.Check("ppr"));
///     ...
///   }
class RequestContext {
 public:
  /// Infinite deadline, high priority.
  RequestContext() = default;
  explicit RequestContext(Deadline deadline, Priority priority = Priority::kHigh)
      : deadline_(deadline), priority_(priority) {}

  static RequestContext WithTimeoutMillis(double ms,
                                          Priority priority = Priority::kHigh) {
    return RequestContext(Deadline::AfterMillis(ms), priority);
  }

  const Deadline& deadline() const { return deadline_; }
  Priority priority() const { return priority_; }

  bool expired() const { return deadline_.expired(); }

  /// Cooperative cancellation point: OK while the request may keep
  /// running, DeadlineExceeded once the budget is spent. `where` names
  /// the loop for the error message.
  Status Check(std::string_view where) const;

 private:
  Deadline deadline_;
  Priority priority_ = Priority::kHigh;
};

}  // namespace saga

#endif  // SAGA_COMMON_REQUEST_CONTEXT_H_
