#include "common/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "common/trace.h"

namespace saga {

// ---------------------------------------------------------------------------
// Per-run Histogram.

void Histogram::Merge(const Histogram& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
}

double Histogram::Mean() const {
  if (samples_.empty()) return 0.0;
  return Sum() / static_cast<double>(samples_.size());
}

double Histogram::Sum() const {
  double s = 0.0;
  for (double v : samples_) s += v;
  return s;
}

double Histogram::Max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double Histogram::Percentile(double p) const {
  if (samples_.empty()) return 0.0;
  // Sort a copy: const accessors must not mutate shared state (readers
  // may call this concurrently on an immutable snapshot).
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = static_cast<size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::string Histogram::Summary() const {
  return "n=" + std::to_string(count()) + " mean=" + FormatDouble(Mean(), 3) +
         " p50=" + FormatDouble(Percentile(50), 3) +
         " p95=" + FormatDouble(Percentile(95), 3) +
         " p99=" + FormatDouble(Percentile(99), 3) +
         " max=" + FormatDouble(Max(), 3);
}

// ---------------------------------------------------------------------------
// obs core.

namespace obs {

namespace internal {

std::atomic<bool> g_enabled{true};

uint32_t ThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id = next.fetch_add(1,
                                                  std::memory_order_relaxed);
  return id;
}

}  // namespace internal

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

uint64_t LatencyHistogram::BucketLowerNs(int idx) {
  if (idx < (1 << kSubBits)) return static_cast<uint64_t>(idx);
  const int msb = (idx >> kSubBits) + 1;
  const uint64_t sub = static_cast<uint64_t>(idx & ((1 << kSubBits) - 1));
  return (uint64_t{1} << msb) + (sub << (msb - kSubBits));
}

uint64_t LatencyHistogram::Count() const {
  uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

uint64_t LatencyHistogram::SumNs() const {
  return sum_ns_.load(std::memory_order_relaxed);
}

std::array<uint64_t, LatencyHistogram::kNumBuckets>
LatencyHistogram::SnapshotBuckets() const {
  std::array<uint64_t, kNumBuckets> out;
  for (int i = 0; i < kNumBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double LatencyHistogram::PercentileFromBuckets(
    const std::array<uint64_t, kNumBuckets>& buckets, double p) {
  uint64_t total = 0;
  for (uint64_t c : buckets) total += c;
  if (total == 0) return 0.0;
  const double target = (p / 100.0) * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) >= target && buckets[i] > 0) {
      const uint64_t lo = BucketLowerNs(i);
      const uint64_t hi = i + 1 < kNumBuckets ? BucketLowerNs(i + 1) : lo;
      return static_cast<double>(lo + hi) / 2.0;
    }
  }
  return static_cast<double>(BucketLowerNs(kNumBuckets - 1));
}

double LatencyHistogram::PercentileNs(double p) const {
  return PercentileFromBuckets(SnapshotBuckets(), p);
}

void LatencyHistogram::RecordExemplarSlow(uint64_t ns) {
  // Tiny test-and-set spinlock: held for a handful of stores, and only
  // contended when two threads set a new high-water mark at once.
  while (exemplar_lock_.exchange(true, std::memory_order_acquire)) {
  }
  if (ns > exemplar_ns_.load(std::memory_order_relaxed)) {
    const TraceContext ctx = CurrentTraceContext();
    exemplar_hi_.store(ctx.trace_id_hi, std::memory_order_relaxed);
    exemplar_lo_.store(ctx.trace_id_lo, std::memory_order_relaxed);
    exemplar_ns_.store(ns, std::memory_order_relaxed);
  }
  exemplar_lock_.store(false, std::memory_order_release);
}

Exemplar LatencyHistogram::exemplar() const {
  while (exemplar_lock_.exchange(true, std::memory_order_acquire)) {
  }
  Exemplar out;
  out.ns = exemplar_ns_.load(std::memory_order_relaxed);
  out.trace_id_hi = exemplar_hi_.load(std::memory_order_relaxed);
  out.trace_id_lo = exemplar_lo_.load(std::memory_order_relaxed);
  exemplar_lock_.store(false, std::memory_order_release);
  return out;
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
  while (exemplar_lock_.exchange(true, std::memory_order_acquire)) {
  }
  exemplar_ns_.store(0, std::memory_order_relaxed);
  exemplar_hi_.store(0, std::memory_order_relaxed);
  exemplar_lo_.store(0, std::memory_order_relaxed);
  exemplar_lock_.store(false, std::memory_order_release);
}

Registry& Registry::Global() {
  // Intentionally leaked: metrics may be touched from destructors of
  // other statics; the registry must outlive them all.
  static Registry* g = new Registry();
  return *g;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

LatencyHistogram& Registry::latency(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = latencies_.find(name);
  if (it == latencies_.end()) {
    it = latencies_
             .emplace(std::string(name), std::make_unique<LatencyHistogram>())
             .first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, int64_t>> Registry::CountersWithPrefix(
    std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  for (const auto& [name, c] : counters_) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      out.emplace_back(name, c->Value());
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> Registry::GaugesWithPrefix(
    std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, g] : gauges_) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      out.emplace_back(name, g->Value());
    }
  }
  return out;
}

void Registry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : latencies_) h->Reset();
}

namespace {
/// Prometheus metric names use '_' where ours use '.'.
std::string PromName(const std::string& name) {
  std::string out = "saga_" + name;
  for (char& c : out) {
    if (c == '.') c = '_';
  }
  return out;
}

std::string JsonEscapeKey(const std::string& s) {
  // Metric names are [a-z0-9_.]; no escaping needed beyond quoting.
  return "\"" + s + "\"";
}

std::string FormatGaugeValue(double v) {
  if (std::isnan(v)) return "NaN";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}
}  // namespace

std::string Registry::DumpPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    const std::string pn = PromName(name);
    out += "# TYPE " + pn + " counter\n";
    out += pn + " " + std::to_string(c->Value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string pn = PromName(name);
    out += "# TYPE " + pn + " gauge\n";
    out += pn + " " + FormatGaugeValue(g->Value()) + "\n";
  }
  for (const auto& [name, h] : latencies_) {
    const std::string pn = PromName(name);
    out += "# TYPE " + pn + " summary\n";
    for (double q : {0.5, 0.95, 0.99}) {
      out += pn + "{quantile=\"" + FormatDouble(q, 2) + "\"} " +
             FormatDouble(h->PercentileNs(q * 100.0), 1) + "\n";
    }
    out += pn + "_sum " + std::to_string(h->SumNs()) + "\n";
    out += pn + "_count " + std::to_string(h->Count()) + "\n";
  }
  return out;
}

std::string Registry::DumpJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += JsonEscapeKey(name) + ":" + std::to_string(c->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += JsonEscapeKey(name) + ":" + FormatGaugeValue(g->Value());
  }
  out += "},\"latency_ns\":{";
  first = true;
  for (const auto& [name, h] : latencies_) {
    if (!first) out += ",";
    first = false;
    out += JsonEscapeKey(name) + ":{\"count\":" + std::to_string(h->Count()) +
           ",\"sum\":" + std::to_string(h->SumNs()) +
           ",\"p50\":" + FormatDouble(h->PercentileNs(50), 1) +
           ",\"p95\":" + FormatDouble(h->PercentileNs(95), 1) +
           ",\"p99\":" + FormatDouble(h->PercentileNs(99), 1);
    const Exemplar ex = h->exemplar();
    if (ex.valid()) {
      TraceContext id;
      id.trace_id_hi = ex.trace_id_hi;
      id.trace_id_lo = ex.trace_id_lo;
      out += ",\"exemplar\":{\"ns\":" + std::to_string(ex.ns) +
             ",\"trace_id\":\"" + id.TraceIdHex() + "\"}";
    }
    out += "}";
  }
  out += "}}";
  return out;
}

std::string DumpAll(DumpFormat format) {
  return format == DumpFormat::kPrometheus
             ? Registry::Global().DumpPrometheus()
             : Registry::Global().DumpJson();
}

}  // namespace obs

}  // namespace saga
