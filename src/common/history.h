#ifndef SAGA_COMMON_HISTORY_H_
#define SAGA_COMMON_HISTORY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace saga::obs {

/// One whole-registry capture at a point in time: every counter, gauge
/// and latency distribution, stamped with both clocks (wall for
/// display, monotonic for rate math).
struct Snapshot {
  int64_t unix_ms = 0;
  uint64_t mono_ns = 0;
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, LatencyDist> latencies;
};

/// Fixed-capacity ring of registry snapshots — the in-process
/// time-series store behind `saga_cli stats --history`, `saga_cli top`
/// and the SLO watchdog. Capture() appends (evicting the oldest once
/// full); the window accessors compute rates, deltas and percentile
/// series from consecutive-pair differences, so a Registry::ResetAll
/// between captures degrades to "seen since reset" instead of an
/// unsigned wraparound. Thread-safe; captures are mutex-serialized.
class History {
 public:
  explicit History(size_t capacity = 128);

  /// Snapshots the global registry now. Returns the snapshot index
  /// space position (total captures so far, monotonically increasing).
  uint64_t Capture();
  /// Test hook: capture with caller-provided timestamps.
  uint64_t CaptureAt(int64_t unix_ms, uint64_t mono_ns);

  size_t size() const;

  /// Counter increase over the last `window` intervals (clamped to
  /// what the ring holds), reset-tolerant per interval.
  int64_t DeltaOver(const std::string& counter, size_t window) const;
  /// DeltaOver divided by the monotonic span of the same window, in
  /// events/second. 0 when fewer than two snapshots.
  double RatePerSec(const std::string& counter, size_t window) const;
  /// Percentile of the latency distribution accumulated over the last
  /// `window` intervals (consecutive-pair bucket deltas, summed).
  double PercentileOverWindowNs(const std::string& latency, double p,
                                size_t window) const;
  /// Sample count behind PercentileOverWindowNs for the same window.
  uint64_t CountOverWindow(const std::string& latency, size_t window) const;
  /// Human-readable series over the last `window` intervals: per-metric
  /// rate / percentile columns, one row per captured snapshot.
  std::string Report(size_t window = 12) const;

 private:
  /// Distribution accumulated over the last `window` intervals.
  LatencyDist WindowDistLocked(const std::string& latency,
                               size_t window) const;

  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<Snapshot> ring_;
  uint64_t total_captures_ = 0;
};

/// Process-global history used by saga_cli and the SLO watchdog.
History& GlobalHistory();

}  // namespace saga::obs

#endif  // SAGA_COMMON_HISTORY_H_
