#ifndef SAGA_COMMON_SLO_H_
#define SAGA_COMMON_SLO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/history.h"

namespace saga::obs {

/// One service-level objective over the metric surface. Either half
/// may be absent: an availability-only SLO leaves latency_metric
/// empty, a latency-only SLO leaves the counters empty.
struct SloSpec {
  /// Short lower_snake_case id; becomes the obs.slo.<name>_* gauge
  /// stem and the row label in stats --health.
  std::string name;
  /// Availability: good/error event counters (registry names).
  std::string good_counter;
  std::string error_counter;
  /// e.g. 0.999 — error budget is 1 - target.
  double availability_target = 0.999;
  /// Latency: histogram metric (registry name, *_ns) + p99 target.
  std::string latency_metric;
  double latency_p99_target_ms = 0.0;
};

/// Burn rates over one evaluation window. A burn of 1.0 means the
/// window consumed its budget exactly; > 1.0 means the SLO is burning
/// too fast (availability: error fraction over budget; latency: window
/// p99 over target). 0 when the window has no data for that half.
struct SloVerdict {
  std::string name;
  double availability_burn = 0.0;
  double latency_burn = 0.0;
  bool ok = true;
  // Evidence behind the burns, for the health view.
  int64_t good_delta = 0;
  int64_t error_delta = 0;
  double window_p99_ms = 0.0;
};

/// Evaluates a set of SLOs against a History window and exports the
/// verdicts as obs.slo.<name>_availability_burn / _latency_burn /
/// _ok gauges — the machine-readable alert surface; `saga_cli stats
/// --health` renders the same verdicts as text.
class SloWatchdog {
 public:
  explicit SloWatchdog(std::vector<SloSpec> specs);

  /// Burn rates over the last `window` intervals of `history`,
  /// exported to gauges as a side effect. Deterministic and cheap;
  /// call after each History::Capture.
  std::vector<SloVerdict> Evaluate(const History& history,
                                   size_t window) const;

 private:
  std::vector<SloSpec> specs_;
};

/// The platform's built-in SLOs: replication write availability, KV
/// write availability (degraded-mode rejections burn it), plus latency
/// objectives for the serving-path histograms (kv get, embedding topk,
/// QA ask).
std::vector<SloSpec> DefaultPlatformSlos();

}  // namespace saga::obs

#endif  // SAGA_COMMON_SLO_H_
