#include "serving/admission_controller.h"

#include "common/metrics.h"

namespace saga::serving {

AdmissionController::AdmissionController(Options options)
    : options_(options) {
  if (options_.low_priority_max_concurrent > options_.max_concurrent) {
    options_.low_priority_max_concurrent = options_.max_concurrent;
  }
  SAGA_GAUGE("serving.admission.concurrency_limit")
      .Set(static_cast<double>(options_.max_concurrent));
}

AdmissionController::Ticket AdmissionController::TryAdmit(
    const RequestContext& ctx) {
  // Expired work is load with no possible value — bounce it before it
  // takes a slot, regardless of priority.
  if (ctx.expired()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected_expired;
    SAGA_COUNTER("serving.admission.expired").Add();
    return Ticket();
  }

  const Priority p = ctx.priority();
  std::lock_guard<std::mutex> lock(mu_);
  const bool shed =
      stats_.in_flight >= options_.max_concurrent ||
      (p == Priority::kLow &&
       stats_.in_flight_low >= options_.low_priority_max_concurrent);
  if (shed) {
    if (p == Priority::kLow) {
      ++stats_.shed_low;
      SAGA_COUNTER("serving.admission.shed_low").Add();
    } else {
      ++stats_.shed_high;
      SAGA_COUNTER("serving.admission.shed_high").Add();
    }
    return Ticket();
  }

  ++stats_.admitted;
  ++stats_.in_flight;
  if (p == Priority::kLow) ++stats_.in_flight_low;
  SAGA_COUNTER("serving.admission.admitted").Add();
  SAGA_GAUGE("serving.admission.in_flight")
      .Set(static_cast<double>(stats_.in_flight));
  SAGA_GAUGE("serving.admission.in_flight_low")
      .Set(static_cast<double>(stats_.in_flight_low));
  return Ticket(this, p);
}

void AdmissionController::Release(Priority p) {
  std::lock_guard<std::mutex> lock(mu_);
  --stats_.in_flight;
  if (p == Priority::kLow) --stats_.in_flight_low;
  SAGA_GAUGE("serving.admission.in_flight")
      .Set(static_cast<double>(stats_.in_flight));
  SAGA_GAUGE("serving.admission.in_flight_low")
      .Set(static_cast<double>(stats_.in_flight_low));
}

void AdmissionController::Ticket::Release() {
  if (controller_ != nullptr) {
    controller_->Release(priority_);
    controller_ = nullptr;
  }
}

AdmissionController::Stats AdmissionController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace saga::serving
