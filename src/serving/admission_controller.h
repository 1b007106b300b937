#ifndef SAGA_SERVING_ADMISSION_CONTROLLER_H_
#define SAGA_SERVING_ADMISSION_CONTROLLER_H_

#include <cstdint>
#include <mutex>

#include "common/request_context.h"
#include "common/status.h"

namespace saga::serving {

/// Front-door admission control for the serving tier (paper §6 serves
/// interactive traffic under strict SLAs next to background/bulk work).
/// A concurrency limit: at most `max_concurrent` requests in flight, and
/// a tighter `low_priority_max_concurrent` sub-limit so bulk work can
/// never occupy the whole tier. Under overload low-priority requests
/// are shed first, with ResourceExhausted — the retryable "back off and
/// come back" signal — while high-priority traffic keeps the remaining
/// capacity.
///
/// Requests whose deadline is already expired are rejected up front
/// with DeadlineExceeded (no point admitting work that cannot finish —
/// it only adds load exactly when load is the problem).
///
/// Usage:
///
///   auto ticket = admission.TryAdmit(ctx);
///   if (!ticket.ok()) return ...;   // shed
///   ... serve ...                   // ticket releases slot
///
/// Metrics: `serving.admission.admitted` / `.shed_low` / `.shed_high` /
/// `.expired` counters and `serving.admission.in_flight` /
/// `.in_flight_low` gauges. Thread-safe.
class AdmissionController {
 public:
  struct Options {
    /// Total in-flight request cap (both classes).
    int max_concurrent = 64;
    /// Sub-cap for low-priority requests; must be <= max_concurrent.
    int low_priority_max_concurrent = 16;
  };

  struct Stats {
    uint64_t admitted = 0;
    uint64_t shed_low = 0;
    uint64_t shed_high = 0;
    uint64_t rejected_expired = 0;
    int in_flight = 0;
    int in_flight_low = 0;
  };

  /// RAII admission slot: releases concurrency on destruction. Falsy
  /// (ok() == false) when the request was shed; Stats say why.
  class Ticket {
   public:
    Ticket() = default;
    ~Ticket() { Release(); }
    Ticket(Ticket&& other) noexcept { *this = std::move(other); }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Release();
        controller_ = other.controller_;
        priority_ = other.priority_;
        other.controller_ = nullptr;
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    bool ok() const { return controller_ != nullptr; }

    /// Early release (before destruction), e.g. when handing the
    /// response off to a writer that is no longer "serving work".
    void Release();

   private:
    friend class AdmissionController;
    Ticket(AdmissionController* c, Priority p) : controller_(c), priority_(p) {}

    AdmissionController* controller_ = nullptr;
    Priority priority_ = Priority::kHigh;
  };

  explicit AdmissionController(Options options);
  AdmissionController() : AdmissionController(Options()) {}

  /// Admission decision for one request. Never blocks: under overload
  /// the answer is an immediate shed (ResourceExhausted) so callers can
  /// retry with backoff or fail fast, not queue invisibly.
  Ticket TryAdmit(const RequestContext& ctx);

  Stats stats() const;

 private:
  friend class Ticket;
  void Release(Priority p);

  Options options_;
  mutable std::mutex mu_;
  Stats stats_;
};

}  // namespace saga::serving

#endif  // SAGA_SERVING_ADMISSION_CONTROLLER_H_
