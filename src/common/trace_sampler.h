#ifndef SAGA_COMMON_TRACE_SAMPLER_H_
#define SAGA_COMMON_TRACE_SAMPLER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"

namespace saga::obs {

/// One trace retained by the tail sampler: every fragment recorded for
/// the trace (client thread, pool workers, remote replicas), plus the
/// retention verdict.
struct RetainedTrace {
  uint64_t trace_id_hi = 0;
  uint64_t trace_id_lo = 0;
  std::string root_name;
  uint64_t root_duration_ns = 0;
  bool errored = false;  // a span carried a retained error code
  bool slow = false;     // root latency above the rolling percentile
  std::vector<std::unique_ptr<SpanNode>> fragments;
};

/// Tail-based trace sampler: buffers the fragments of in-flight traces
/// and, when the trace-initiating span completes, decides retention —
/// keep traces that are *slow* (root duration at or above the rolling
/// percentile of same-named roots, once enough samples exist) or
/// *errored* (any span marked kDeadlineExceeded / kUnavailable /
/// kDataLoss); drop the fast, healthy majority. Retained traces live
/// in a fixed-size ring (oldest evicted) and export as Chrome
/// trace_event JSON (`saga_cli trace dump`).
///
/// Lock discipline: one mutex, taken only at fragment completion (per
/// request, not per span) — the per-span hot path never sees it.
/// Thread-safe; Offer may race from any number of request threads.
class TraceSampler {
 public:
  struct Options {
    /// Retained-trace ring capacity (oldest evicted).
    size_t capacity = 64;
    /// A completed root is "slow" once at least this many same-named
    /// roots have completed (before that nothing is slow — the
    /// estimate is noise); see kSlowPercentile.
    uint64_t min_samples_for_slow = 32;
    /// Retain every completed trace regardless of verdict (CLI trace
    /// dumps, tests). Error/slow flags are still computed.
    bool keep_all = false;
  };

  struct Stats {
    uint64_t traces_decided = 0;
    uint64_t retained_slow = 0;
    uint64_t retained_error = 0;
    uint64_t retained_forced = 0;  // keep_all retentions
    uint64_t dropped = 0;
    uint64_t late_fragments = 0;  // arrived after their trace decided
    uint64_t evicted_pending = 0;
  };

  /// In-flight traces buffered at once; beyond this the oldest
  /// pending trace is dropped (a leak guard, not a policy knob).
  static constexpr size_t kMaxPendingTraces = 256;
  /// A completed root is "slow" when its duration reaches this
  /// percentile of prior same-named roots.
  static constexpr double kSlowPercentile = 99.0;

  explicit TraceSampler(Options options);

  TraceSampler(const TraceSampler&) = delete;
  TraceSampler& operator=(const TraceSampler&) = delete;

  /// Fragment-completion entry point (wired via the trace module's
  /// fragment sink). `trace_complete` marks the trace-initiating
  /// fragment: it triggers the retention decision.
  void Offer(std::unique_ptr<SpanNode> fragment, bool trace_complete);

  size_t NumRetained() const;
  Stats stats() const;

  /// Visits retained traces oldest-first under the sampler lock.
  void VisitRetained(const std::function<void(const RetainedTrace&)>& fn) const;

  /// All retained traces as one Chrome trace_event JSON document.
  std::string DumpChromeTraceJson() const;

  /// True for the error codes whose traces the sampler always keeps.
  static bool IsRetainedError(uint32_t code);

 private:
  struct Pending {
    std::vector<std::unique_ptr<SpanNode>> fragments;
  };

  void Decide(uint64_t hi, uint64_t lo, Pending pending,
              const SpanNode& root);

  Options options_;
  mutable std::mutex mu_;
  std::map<std::pair<uint64_t, uint64_t>, Pending> pending_;
  std::deque<std::pair<uint64_t, uint64_t>> pending_order_;
  /// Bounded memory of recently decided trace ids, so fragments that
  /// complete after their trace's verdict are counted and dropped
  /// instead of pooling in pending_ until eviction.
  std::set<std::pair<uint64_t, uint64_t>> decided_;
  std::deque<std::pair<uint64_t, uint64_t>> decided_order_;
  std::deque<RetainedTrace> retained_;
  /// Rolling latency distribution per root-span name — the "slow"
  /// threshold source. Bounded: one entry per distinct root name.
  std::map<std::string, LatencyHistogram> root_latency_;
  Stats stats_;
};

/// Installs a process-global tail sampler: completed fragments are
/// routed to it instead of the aggregate trace store (SpanReport /
/// AggregateSpans read the store and see nothing while a sampler is
/// installed — serving uses the sampler, benches use the store).
/// Replaces any previous sampler.
TraceSampler& EnableTailSampling(TraceSampler::Options options);
/// Uninstalls the sampler; fragments flow to the store again. The
/// sampler object (and its retained traces) stays valid until the next
/// EnableTailSampling.
void DisableTailSampling();
/// Installed sampler, or nullptr.
TraceSampler* GlobalTraceSampler();

}  // namespace saga::obs

#endif  // SAGA_COMMON_TRACE_SAMPLER_H_
