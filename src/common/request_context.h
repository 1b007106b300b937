#ifndef SAGA_COMMON_REQUEST_CONTEXT_H_
#define SAGA_COMMON_REQUEST_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "common/trace.h"

namespace saga {

/// Monotonic-clock request deadline. Value-semantic and cheap to copy;
/// the default-constructed deadline is infinite, so code that threads a
/// Deadline through unconditionally pays nothing for callers that never
/// set one (`expired()` on an infinite deadline is one comparison).
///
/// Budget arithmetic lives here too: a stage that wants to spend at
/// most a slice of the remaining budget derives a child deadline with
/// `WithBudgetMillis`, which can only tighten, never extend.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Infinite: never expires.
  Deadline() : at_(Clock::time_point::max()) {}
  explicit Deadline(Clock::time_point at) : at_(at) {}

  static Deadline Infinite() { return Deadline(); }
  static Deadline AfterMillis(double ms) {
    return Deadline(Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(ms)));
  }
  /// The earlier of two deadlines (an infinite one never wins).
  static Deadline Min(Deadline a, Deadline b) {
    return a.at_ <= b.at_ ? a : b;
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

  /// Child deadline spending at most `ms` of the remaining budget:
  /// min(this, now + ms). Never later than the parent.
  Deadline WithBudgetMillis(double ms) const {
    return Min(*this, AfterMillis(ms));
  }

  Clock::time_point time_point() const { return at_; }

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

inline std::string_view PriorityName(Priority p) {
  return p == Priority::kHigh ? "high" : "low";
}

/// Per-request context threaded through the serving tier: deadline,
/// priority class, and a shared cancellation flag. Copies share the
/// cancellation flag (a copy handed to a worker sees Cancel() from the
/// caller), so pass by value or const reference freely.
///
/// Long loops check cooperatively at loop boundaries:
///
///   for (...) {
///     if ((steps++ & 63) == 0) SAGA_RETURN_IF_ERROR(ctx.Check("ppr"));
///     ...
///   }
class RequestContext {
 public:
  /// Infinite deadline, high priority, never cancelled. Captures the
  /// ambient trace context of the constructing thread (invalid when no
  /// trace is active), so a context built inside a request span
  /// carries the trace wherever the request goes.
  RequestContext() : trace_(obs::CurrentTraceContext()) {}
  explicit RequestContext(Deadline deadline, Priority priority = Priority::kHigh)
      : deadline_(deadline),
        priority_(priority),
        trace_(obs::CurrentTraceContext()) {}

  static RequestContext WithTimeoutMillis(double ms,
                                          Priority priority = Priority::kHigh) {
    return RequestContext(Deadline::AfterMillis(ms), priority);
  }

  const Deadline& deadline() const { return deadline_; }
  Priority priority() const { return priority_; }
  void set_priority(Priority p) { priority_ = p; }

  /// Tighten the deadline (never extends; Deadline::Min semantics).
  void TightenDeadline(Deadline d) { deadline_ = Deadline::Min(deadline_, d); }

  /// Derived context for a sub-operation with its own budget slice.
  RequestContext WithBudgetMillis(double ms) const {
    RequestContext child = *this;
    child.deadline_ = deadline_.WithBudgetMillis(ms);
    return child;
  }

  /// Explicit cancellation (client disconnect, superseded request).
  /// Allocates the shared flag lazily on first Cancel.
  void Cancel() {
    if (cancelled_ == nullptr) {
      cancelled_ = std::make_shared<std::atomic<bool>>(true);
    } else {
      cancelled_->store(true, std::memory_order_relaxed);
    }
  }
  bool cancelled() const {
    return cancelled_ != nullptr &&
           cancelled_->load(std::memory_order_relaxed);
  }

  /// Shares one cancellation flag across copies made *after* this call.
  void EnableSharedCancel() {
    if (cancelled_ == nullptr) {
      cancelled_ = std::make_shared<std::atomic<bool>>(false);
    }
  }

  bool expired() const { return cancelled() || deadline_.expired(); }

  /// Cooperative cancellation point: OK while the request may keep
  /// running, DeadlineExceeded once the budget is spent (or the request
  /// was cancelled). `where` names the loop for the error message.
  Status Check(std::string_view where) const;

  /// Trace identity captured at construction (or set explicitly when a
  /// context is built away from the request thread). Install on the
  /// far side with obs::ScopedTraceContext to stitch cross-thread work
  /// into the originating trace.
  const obs::TraceContext& trace() const { return trace_; }
  void set_trace(const obs::TraceContext& trace) { trace_ = trace; }
  /// Re-captures the ambient trace context (e.g. after opening the
  /// request's root span with a pre-built context).
  void CaptureTrace() { trace_ = obs::CurrentTraceContext(); }

 private:
  Deadline deadline_;
  Priority priority_ = Priority::kHigh;
  std::shared_ptr<std::atomic<bool>> cancelled_;
  obs::TraceContext trace_;
};

}  // namespace saga

#endif  // SAGA_COMMON_REQUEST_CONTEXT_H_
