#include "common/history.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/string_util.h"
#include "common/trace.h"

namespace saga::obs {

namespace {

int64_t WallNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string FmtNs(double ns) {
  if (ns >= 1e9) return FormatDouble(ns / 1e9, 2) + "s";
  if (ns >= 1e6) return FormatDouble(ns / 1e6, 2) + "ms";
  if (ns >= 1e3) return FormatDouble(ns / 1e3, 2) + "us";
  return FormatDouble(ns, 0) + "ns";
}

/// Reset-tolerant counter delta for one interval.
int64_t IntervalDelta(int64_t newer, int64_t older) {
  return newer >= older ? newer - older : newer;
}

}  // namespace

History::History(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

uint64_t History::Capture() {
  return CaptureAt(WallNowMs(), MonotonicNowNs());
}

uint64_t History::CaptureAt(int64_t unix_ms, uint64_t mono_ns) {
  Snapshot snap;
  snap.unix_ms = unix_ms;
  snap.mono_ns = mono_ns;
  const Registry& reg = Registry::Global();
  for (auto& [name, value] : reg.CountersWithPrefix("")) {
    snap.counters.emplace(std::move(name), value);
  }
  for (auto& [name, value] : reg.GaugesWithPrefix("")) {
    snap.gauges.emplace(std::move(name), value);
  }
  for (auto& latency : reg.LatencySnapshotsWithPrefix("")) {
    snap.latencies.emplace(std::move(latency.name), latency.dist);
  }
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(std::move(snap));
  while (ring_.size() > capacity_) ring_.pop_front();
  return ++total_captures_;
}

size_t History::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

int64_t History::DeltaOver(const std::string& counter, size_t window) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < 2 || window == 0) return 0;
  const size_t first =
      ring_.size() - 1 - std::min(window, ring_.size() - 1);
  int64_t total = 0;
  for (size_t i = first + 1; i < ring_.size(); ++i) {
    auto newer = ring_[i].counters.find(counter);
    if (newer == ring_[i].counters.end()) continue;
    auto older = ring_[i - 1].counters.find(counter);
    const int64_t prev =
        older == ring_[i - 1].counters.end() ? 0 : older->second;
    total += IntervalDelta(newer->second, prev);
  }
  return total;
}

double History::RatePerSec(const std::string& counter, size_t window) const {
  const int64_t delta = DeltaOver(counter, window);
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < 2 || window == 0) return 0.0;
  const size_t first =
      ring_.size() - 1 - std::min(window, ring_.size() - 1);
  const uint64_t span_ns = ring_.back().mono_ns - ring_[first].mono_ns;
  if (span_ns == 0) return 0.0;
  return static_cast<double>(delta) * 1e9 / static_cast<double>(span_ns);
}

LatencyDist History::WindowDistLocked(const std::string& latency,
                                      size_t window) const {
  LatencyDist total;
  if (ring_.size() < 2 || window == 0) return total;
  const size_t first =
      ring_.size() - 1 - std::min(window, ring_.size() - 1);
  for (size_t i = first + 1; i < ring_.size(); ++i) {
    auto newer = ring_[i].latencies.find(latency);
    if (newer == ring_[i].latencies.end()) continue;
    auto older = ring_[i - 1].latencies.find(latency);
    const LatencyDist delta =
        older == ring_[i - 1].latencies.end()
            ? newer->second
            : newer->second.DeltaSince(older->second);
    for (size_t b = 0; b < total.buckets.size(); ++b) {
      total.buckets[b] += delta.buckets[b];
    }
  }
  return total;
}

double History::PercentileOverWindowNs(const std::string& latency, double p,
                                       size_t window) const {
  std::lock_guard<std::mutex> lock(mu_);
  return WindowDistLocked(latency, window).PercentileNs(p);
}

uint64_t History::CountOverWindow(const std::string& latency,
                                  size_t window) const {
  std::lock_guard<std::mutex> lock(mu_);
  return WindowDistLocked(latency, window).count();
}

std::string History::Report(size_t window) const {
  Snapshot latest;
  size_t n;
  uint64_t captures;
  {
    std::lock_guard<std::mutex> lock(mu_);
    n = ring_.size();
    captures = total_captures_;
    if (!ring_.empty()) latest = ring_.back();
  }
  std::string out;
  char buf[256];
  if (n < 2) {
    return "history: " + std::to_string(n) +
           " snapshot(s) — need at least 2 for rates\n";
  }
  const size_t w = std::min(window, n - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t first = ring_.size() - 1 - w;
    const double span_s =
        static_cast<double>(ring_.back().mono_ns - ring_[first].mono_ns) /
        1e9;
    std::snprintf(buf, sizeof(buf),
                  "history: %zu/%zu snapshots (%llu captures), window %zu "
                  "intervals spanning %.1fs\n",
                  n, capacity_, static_cast<unsigned long long>(captures), w,
                  span_s);
    out += buf;
  }
  out += "\ncounter                                     delta      rate/s\n";
  for (const auto& [name, value] : latest.counters) {
    const int64_t delta = DeltaOver(name, w);
    if (delta == 0) continue;
    std::snprintf(buf, sizeof(buf), "%-40s %9lld %11.1f\n", name.c_str(),
                  static_cast<long long>(delta), RatePerSec(name, w));
    out += buf;
  }
  out += "\nlatency (window)                            n        p50        "
         "p99   p99 series\n";
  for (const auto& [name, dist] : latest.latencies) {
    const uint64_t count = CountOverWindow(name, w);
    if (count == 0) continue;
    std::snprintf(buf, sizeof(buf), "%-40s %5llu %10s %10s   ", name.c_str(),
                  static_cast<unsigned long long>(count),
                  FmtNs(PercentileOverWindowNs(name, 50, w)).c_str(),
                  FmtNs(PercentileOverWindowNs(name, 99, w)).c_str());
    out += buf;
    // Per-interval p99 series, oldest first — the "is it getting
    // worse" glance.
    std::lock_guard<std::mutex> lock(mu_);
    const size_t first = ring_.size() - 1 - w;
    for (size_t i = first + 1; i < ring_.size(); ++i) {
      auto newer = ring_[i].latencies.find(name);
      if (newer == ring_[i].latencies.end()) {
        out += " -";
        continue;
      }
      auto older = ring_[i - 1].latencies.find(name);
      const LatencyDist delta =
          older == ring_[i - 1].latencies.end()
              ? newer->second
              : newer->second.DeltaSince(older->second);
      out += " " + (delta.count() == 0 ? std::string("-")
                                       : FmtNs(delta.PercentileNs(99)));
    }
    out += "\n";
  }
  return out;
}

History& GlobalHistory() {
  static History* g = new History(128);
  return *g;
}

}  // namespace saga::obs
