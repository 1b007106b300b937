#include "common/circuit_breaker.h"

#include <algorithm>
#include <chrono>

namespace saga {

namespace {

/// Probes allowed in flight at once while half-open.
constexpr int kHalfOpenMaxProbes = 1;

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

CircuitBreaker::CircuitBreaker(std::string metric_stem, Options options)
    : stem_(std::move(metric_stem)),
      options_(std::move(options)),
      state_gauge_(obs::Registry::Global().gauge(stem_ + "_state")),
      opened_counter_(obs::Registry::Global().counter(stem_ + "_opened")),
      rejected_counter_(obs::Registry::Global().counter(stem_ + "_rejected")),
      failures_counter_(obs::Registry::Global().counter(stem_ + "_failures")),
      successes_counter_(
          obs::Registry::Global().counter(stem_ + "_successes")) {
  state_gauge_.Set(static_cast<double>(State::kClosed));
}

bool CircuitBreaker::IsFailure(const Status& s) {
  switch (s.code()) {
    case StatusCode::kIOError:
    case StatusCode::kCorruption:
    case StatusCode::kResourceExhausted:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

uint64_t CircuitBreaker::NowNs() const {
  return options_.now_ns ? options_.now_ns() : SteadyNowNs();
}

void CircuitBreaker::TransitionLocked(State next, uint64_t now) {
  if (state_ == next) return;
  state_ = next;
  state_gauge_.Set(static_cast<double>(next));
  switch (next) {
    case State::kOpen:
      opened_at_ns_ = now;
      opened_counter_.Add();
      break;
    case State::kHalfOpen:
      half_open_in_flight_ = 0;
      break;
    case State::kClosed:
      consecutive_failures_ = 0;
      break;
  }
}

Status CircuitBreaker::Allow() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t now = NowNs();
  if (state_ == State::kOpen) {
    const uint64_t open_ns =
        static_cast<uint64_t>(std::max(0.0, options_.open_ms) * 1e6);
    if (now - opened_at_ns_ >= open_ns) {
      TransitionLocked(State::kHalfOpen, now);
    } else {
      rejected_counter_.Add();
      return Status::Unavailable("circuit breaker " + stem_ + " is open");
    }
  }
  if (state_ == State::kHalfOpen) {
    if (half_open_in_flight_ >= kHalfOpenMaxProbes) {
      rejected_counter_.Add();
      return Status::Unavailable("circuit breaker " + stem_ +
                                 " half-open probe limit reached");
    }
    ++half_open_in_flight_;
  }
  return Status::OK();
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  successes_counter_.Add();
  switch (state_) {
    case State::kHalfOpen:
      half_open_in_flight_ = std::max(0, half_open_in_flight_ - 1);
      TransitionLocked(State::kClosed, NowNs());
      break;
    case State::kClosed:
      consecutive_failures_ = 0;
      break;
    case State::kOpen:
      break;  // straggler from before the trip
  }
}

void CircuitBreaker::RecordFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  failures_counter_.Add();
  const uint64_t now = NowNs();
  switch (state_) {
    case State::kHalfOpen:
      half_open_in_flight_ = std::max(0, half_open_in_flight_ - 1);
      TransitionLocked(State::kOpen, now);
      break;
    case State::kClosed:
      if (++consecutive_failures_ >= options_.failure_threshold) {
        TransitionLocked(State::kOpen, now);
      }
      break;
    case State::kOpen:
      break;  // straggler from before the trip
  }
}

void CircuitBreaker::RecordNoOutcome() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kHalfOpen) {
    half_open_in_flight_ = std::max(0, half_open_in_flight_ - 1);
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

}  // namespace saga
