#ifndef SAGA_COMMON_METRICS_H_
#define SAGA_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/trace.h"

namespace saga {

/// Wall-clock stopwatch used by benchmarks and pipeline stage timing.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates samples and reports count/mean/min/max/percentiles.
///
/// Threading contract (single-writer): Add()/Merge() must come from one
/// thread at a time — each worker owns a private Histogram and the
/// owner merges them. Once writes have quiesced, the accessors
/// (Mean/Min/Max/Percentile/Summary) are safe to call concurrently from
/// any number of reader threads: they never mutate state (an earlier
/// version lazily sorted a `mutable` sample buffer inside const
/// accessors, which raced under concurrent readers).
class Histogram {
 public:
  void Add(double v) { samples_.push_back(v); }
  void Merge(const Histogram& other);

  size_t count() const { return samples_.size(); }
  double Mean() const;
  double Min() const;
  double Max() const;
  double Sum() const;
  /// p in [0, 100]. Returns 0 when empty.
  double Percentile(double p) const;

  /// e.g. "n=100 mean=1.2 p50=1.1 p99=3.0 max=3.2".
  std::string Summary() const;

 private:
  std::vector<double> samples_;
};

namespace obs {

/// Process-wide kill switch: when disabled, counter/gauge/latency
/// recording and span creation become cheap no-ops (one relaxed atomic
/// load). Enabled by default.
void SetEnabled(bool enabled);
bool Enabled();

namespace internal {
extern std::atomic<bool> g_enabled;
/// Small dense id for the calling thread (assigned on first use);
/// shards counters and labels spans/log lines.
uint32_t ThreadId();
inline bool EnabledFast() {
  return g_enabled.load(std::memory_order_relaxed);
}
}  // namespace internal

/// Monotonically increasing counter. The hot path is one relaxed
/// `fetch_add` on a cache-line-padded shard picked by thread id — no
/// mutex, and no cross-core contention until more threads than shards
/// touch the same counter.
class Counter {
 public:
  static constexpr uint32_t kShards = 8;

  void Add(int64_t delta = 1) {
    if (!internal::EnabledFast()) return;
    shards_[internal::ThreadId() & (kShards - 1)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  int64_t Value() const {
    int64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> v{0};
  };
  std::array<Shard, kShards> shards_;
};

/// Last-write-wins instantaneous value (cache occupancy, hit rate, ...).
class Gauge {
 public:
  void Set(double v) {
    if (!internal::EnabledFast()) return;
    bits_.store(std::bit_cast<uint64_t>(v), std::memory_order_relaxed);
  }
  double Value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }
  void Reset() { bits_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> bits_{0};
};

/// High-water latency sample with the trace that produced it: links a
/// histogram's tail directly to a dumpable trace (`saga_cli trace
/// dump`). Trace ids are zero when the sample was recorded outside a
/// sampled trace.
struct Exemplar {
  uint64_t ns = 0;
  uint64_t trace_id_hi = 0;
  uint64_t trace_id_lo = 0;
  /// An exemplar exists only when a traced request produced the
  /// sample: untraced records advance the high-water mark but carry no
  /// trace to point at.
  bool valid() const { return ns != 0 && (trace_id_hi | trace_id_lo) != 0; }
};

/// Fixed-bucket log-scale latency histogram over nanoseconds: 4
/// sub-buckets per power of two (<= 25% relative quantile error), all
/// updates lock-free relaxed `fetch_add` — safe to Record() from any
/// thread with no mutex on the sample path. The exemplar slow path (a
/// tiny spinlock) only runs when a sample sets a new high-water mark.
class LatencyHistogram {
 public:
  /// 2 sub-bucket bits -> 4 sub-buckets per octave.
  static constexpr int kSubBits = 2;
  /// Values up to 2^40 ns (~18 min); larger clamps into the top bucket.
  static constexpr int kNumBuckets = 40 << kSubBits;

  void Record(uint64_t ns) {
    if (!internal::EnabledFast()) return;
    buckets_[BucketFor(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    if (ns > exemplar_ns_.load(std::memory_order_relaxed)) {
      RecordExemplarSlow(ns);
    }
  }

  uint64_t Count() const;
  uint64_t SumNs() const;
  double MeanNs() const;
  /// p in [0, 100]; bucket-midpoint estimate. 0 when empty.
  double PercentileNs(double p) const;

  /// Highest-latency sample seen since the last Reset, with the trace
  /// id active when it was recorded (zero ids = untraced sample).
  Exemplar exemplar() const;

  /// Immutable bucket snapshot (counts per bucket) for merging and
  /// export without holding up writers.
  std::array<uint64_t, kNumBuckets> SnapshotBuckets() const;
  /// Inclusive lower bound in ns of bucket `idx`.
  static uint64_t BucketLowerNs(int idx);
  /// Bucket-midpoint percentile over a standalone bucket array — the
  /// shared math behind PercentileNs and obs::History window
  /// percentiles (which subtract snapshots before calling this).
  static double PercentileFromBuckets(
      const std::array<uint64_t, kNumBuckets>& buckets, double p);

  /// e.g. "n=100 mean=1.2us p50=1.1us p99=3.0us".
  std::string Summary() const;
  void Reset();

  static int BucketFor(uint64_t ns) {
    if (ns < (1u << kSubBits)) return static_cast<int>(ns);
    const int msb = 63 - std::countl_zero(ns);
    const int sub =
        static_cast<int>((ns >> (msb - kSubBits)) & ((1u << kSubBits) - 1));
    const int idx = ((msb - 1) << kSubBits) + sub;
    return idx < kNumBuckets ? idx : kNumBuckets - 1;
  }

 private:
  /// High-water slow path: takes the spinlock, re-checks the mark, and
  /// attaches the calling thread's trace id. Out of line so the common
  /// Record() stays a pair of relaxed fetch_adds plus one load.
  void RecordExemplarSlow(uint64_t ns);

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> sum_ns_{0};
  /// Exemplar triple; exemplar_ns_ doubles as the lock-free high-water
  /// gate, the spinlock keeps the triple coherent for readers.
  std::atomic<uint64_t> exemplar_ns_{0};
  std::atomic<uint64_t> exemplar_hi_{0};
  std::atomic<uint64_t> exemplar_lo_{0};
  mutable std::atomic<bool> exemplar_lock_{false};
};

/// Plain-value distribution snapshot: bucket counts + sum at one point
/// in time. Subtractable (History computes per-window distributions as
/// clamped bucket deltas between two captures) and percentile-capable
/// via LatencyHistogram::PercentileFromBuckets.
struct LatencyDist {
  std::array<uint64_t, LatencyHistogram::kNumBuckets> buckets{};
  uint64_t sum_ns = 0;

  uint64_t count() const {
    uint64_t n = 0;
    for (uint64_t c : buckets) n += c;
    return n;
  }
  double PercentileNs(double p) const {
    return LatencyHistogram::PercentileFromBuckets(buckets, p);
  }
  double MeanNs() const {
    const uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum_ns) / static_cast<double>(n);
  }
  /// this - older, clamped at zero per bucket (reset-tolerant: a
  /// counter that went backwards contributes its new value, not a
  /// huge unsigned wraparound).
  LatencyDist DeltaSince(const LatencyDist& older) const;
};

/// One named latency metric captured whole: distribution + exemplar.
struct LatencySnapshot {
  std::string name;
  LatencyDist dist;
  Exemplar exemplar;
};

/// RAII latency sample: records elapsed ns into a histogram on scope
/// exit. Near-free when the subsystem is disabled.
class ScopedLatency {
 public:
  explicit ScopedLatency(LatencyHistogram& hist)
      : hist_(internal::EnabledFast() ? &hist : nullptr),
        start_(hist_ ? std::chrono::steady_clock::now()
                     : std::chrono::steady_clock::time_point()) {}
  ~ScopedLatency() {
    if (hist_ == nullptr) return;
    hist_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  LatencyHistogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII traced stage: span `name` (only while tracing is on) plus a
/// sample in `hist`, both from one pair of MonotonicNowNs() reads, so
/// the span's duration and the sample are the same number. Use it
/// through SAGA_STAGE, which caches the `<name>_ns` histogram.
class ScopedStage {
 public:
  ScopedStage(std::string_view name, LatencyHistogram& hist)
      : hist_(internal::EnabledFast() ? &hist : nullptr) {
    const bool traced = span_.Open(name);
    if (hist_ == nullptr && !traced) return;
    start_ns_ = MonotonicNowNs();
    if (traced) span_.node_->start_ns = start_ns_;
  }
  ~ScopedStage() {
    if (hist_ == nullptr && span_.node_ == nullptr) return;
    const uint64_t end_ns = MonotonicNowNs();
    // Sample before the span closes: a span that began its trace
    // clears the thread's trace context on close, and the exemplar
    // would lose the trace id.
    if (hist_ != nullptr) hist_->Record(end_ns - start_ns_);
    if (span_.node_ != nullptr) span_.Close(end_ns);
  }
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  LatencyHistogram* hist_;
  ScopedSpan span_;
  uint64_t start_ns_ = 0;
};

enum class DumpFormat { kPrometheus, kJson };

/// Process-global metric registry. Lookup takes a mutex; call sites
/// cache the returned reference (the SAGA_COUNTER / SAGA_GAUGE /
/// SAGA_LATENCY macros do this with a function-local static), so the
/// steady-state hot path never locks. Registered metrics live for the
/// process lifetime — references never dangle.
///
/// Naming scheme (enforced by scripts/check_metric_names.sh):
/// `subsystem.component.metric`, lower_snake_case segments, latency
/// histograms end in `_ns`.
class Registry {
 public:
  static Registry& Global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHistogram& latency(std::string_view name);

  /// Registered counters / gauges whose name starts with `prefix`, with
  /// their current values, sorted by name. Powers targeted stats views
  /// (saga_cli stats --health) without parsing the full text dump.
  std::vector<std::pair<std::string, int64_t>> CountersWithPrefix(
      std::string_view prefix) const;
  std::vector<std::pair<std::string, double>> GaugesWithPrefix(
      std::string_view prefix) const;
  /// Full latency snapshots (buckets + sum + exemplar) for metrics
  /// whose name starts with `prefix`, sorted by name. "" = all; feeds
  /// obs::History captures and the exemplar view in stats dumps.
  std::vector<LatencySnapshot> LatencySnapshotsWithPrefix(
      std::string_view prefix) const;

  /// Prometheus-style text exposition: counters, gauges, and histogram
  /// count/sum/quantile lines, sorted by name ('.' -> '_').
  std::string DumpPrometheus() const;
  /// One JSON object: {"counters":{...},"gauges":{...},"latency":{...}}.
  std::string DumpJson() const;

  /// Zeroes every registered metric (addresses stay valid). For tests
  /// and per-run bench sessions.
  void ResetAll();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      latencies_;
};

/// Platform-wide stats surface: the global registry in the requested
/// format (benches, saga_cli stats, tests).
std::string DumpAll(DumpFormat format = DumpFormat::kPrometheus);

}  // namespace obs

}  // namespace saga

/// Cached global-metric accessors: first evaluation registers the
/// metric, later ones reuse the reference (thread-safe function-local
/// static). `name` must be a string literal following the
/// `subsystem.component.metric` scheme.
#define SAGA_COUNTER(name)                                       \
  ([]() -> ::saga::obs::Counter& {                               \
    static ::saga::obs::Counter& counter_ref =                   \
        ::saga::obs::Registry::Global().counter(name);           \
    return counter_ref;                                          \
  }())

#define SAGA_GAUGE(name)                                         \
  ([]() -> ::saga::obs::Gauge& {                                 \
    static ::saga::obs::Gauge& gauge_ref =                       \
        ::saga::obs::Registry::Global().gauge(name);             \
    return gauge_ref;                                            \
  }())

#define SAGA_LATENCY(name)                                       \
  ([]() -> ::saga::obs::LatencyHistogram& {                      \
    static ::saga::obs::LatencyHistogram& latency_ref =          \
        ::saga::obs::Registry::Global().latency(name);           \
    return latency_ref;                                          \
  }())

/// Traced stage `name`: `auto stage = SAGA_STAGE("serving.qa.ask");`
/// opens span `name` while tracing is on and records histogram
/// `name "_ns"` (see obs::ScopedStage).
#define SAGA_STAGE(name) \
  ::saga::obs::ScopedStage((name), SAGA_LATENCY(name "_ns"))

#endif  // SAGA_COMMON_METRICS_H_
