#include "common/trace_sampler.h"

#include <atomic>
#include <utility>

#include "common/status.h"

namespace saga::obs {

namespace {

/// Installed sampler for the process-global fragment sink. Plain
/// atomic pointer: the sink hook is a stateless function pointer, so
/// the sampler itself is looked up per call.
std::atomic<TraceSampler*> g_sampler{nullptr};
std::mutex g_sampler_mu;  // serializes Enable/Disable
std::unique_ptr<TraceSampler> g_sampler_owner;

void SamplerSink(std::unique_ptr<SpanNode> fragment, bool trace_complete) {
  TraceSampler* sampler = g_sampler.load(std::memory_order_acquire);
  if (sampler == nullptr) return;  // torn down between check and call
  sampler->Offer(std::move(fragment), trace_complete);
}

bool AnyRetainedError(const SpanNode& node) {
  if (TraceSampler::IsRetainedError(node.error_code)) return true;
  for (const auto& child : node.children) {
    if (AnyRetainedError(*child)) return true;
  }
  return false;
}

}  // namespace

TraceSampler::TraceSampler(Options options) : options_(options) {}

bool TraceSampler::IsRetainedError(uint32_t code) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
    case StatusCode::kDataLoss:
      return true;
    default:
      return false;
  }
}

void TraceSampler::Offer(std::unique_ptr<SpanNode> fragment,
                         bool trace_complete) {
  SAGA_COUNTER("obs.sampler.fragments").Add();
  const std::pair<uint64_t, uint64_t> key{fragment->trace_id_hi,
                                          fragment->trace_id_lo};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_.find(key);
  if (trace_complete) {
    Pending pending;
    if (it != pending_.end()) {
      pending = std::move(it->second);
      pending_.erase(it);
    }
    const SpanNode& root = *fragment;
    pending.fragments.push_back(std::move(fragment));
    Decide(key.first, key.second, std::move(pending), root);
    return;
  }
  if (decided_.count(key) > 0) {
    stats_.late_fragments += 1;
    SAGA_COUNTER("obs.sampler.late_fragments").Add();
    return;
  }
  if (it == pending_.end()) {
    if (pending_.size() >= kMaxPendingTraces) {
      // Leak guard: drop the oldest still-pending trace. Entries whose
      // trace already completed were erased from the map; skip them.
      while (!pending_order_.empty()) {
        auto victim = pending_order_.front();
        pending_order_.pop_front();
        if (pending_.erase(victim) > 0) {
          stats_.evicted_pending += 1;
          SAGA_COUNTER("obs.sampler.evicted_pending").Add();
          break;
        }
      }
    }
    it = pending_.emplace(key, Pending{}).first;
    pending_order_.push_back(key);
  }
  it->second.fragments.push_back(std::move(fragment));
}

void TraceSampler::Decide(uint64_t hi, uint64_t lo, Pending pending,
                          const SpanNode& root) {
  stats_.traces_decided += 1;
  SAGA_COUNTER("obs.sampler.traces_decided").Add();
  constexpr size_t kDecidedMemory = 1024;
  decided_.insert({hi, lo});
  decided_order_.push_back({hi, lo});
  while (decided_order_.size() > kDecidedMemory) {
    decided_.erase(decided_order_.front());
    decided_order_.pop_front();
  }

  bool errored = false;
  for (const auto& frag : pending.fragments) {
    if (AnyRetainedError(*frag)) {
      errored = true;
      break;
    }
  }

  // Slow verdict against *prior* same-named roots, so a single outlier
  // cannot raise the bar on itself; the sample is folded in after.
  bool slow = false;
  LatencyHistogram& dist = root_latency_.try_emplace(root.name).first->second;
  if (dist.Count() >= options_.min_samples_for_slow) {
    slow = static_cast<double>(root.duration_ns) >=
           dist.PercentileNs(kSlowPercentile);
  }
  dist.Record(root.duration_ns);

  const bool keep = errored || slow || options_.keep_all;
  if (!keep) {
    stats_.dropped += 1;
    SAGA_COUNTER("obs.sampler.dropped").Add();
    return;
  }
  if (errored) {
    stats_.retained_error += 1;
    SAGA_COUNTER("obs.sampler.retained_error").Add();
  } else if (slow) {
    stats_.retained_slow += 1;
    SAGA_COUNTER("obs.sampler.retained_slow").Add();
  } else {
    stats_.retained_forced += 1;
  }

  RetainedTrace trace;
  trace.trace_id_hi = hi;
  trace.trace_id_lo = lo;
  trace.root_name = root.name;
  trace.root_duration_ns = root.duration_ns;
  trace.errored = errored;
  trace.slow = slow;
  trace.fragments = std::move(pending.fragments);
  retained_.push_back(std::move(trace));
  while (retained_.size() > options_.capacity) retained_.pop_front();
}

size_t TraceSampler::NumRetained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retained_.size();
}

TraceSampler::Stats TraceSampler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void TraceSampler::VisitRetained(
    const std::function<void(const RetainedTrace&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const RetainedTrace& trace : retained_) fn(trace);
}

std::string TraceSampler::DumpChromeTraceJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  VisitRetained([&](const RetainedTrace& trace) {
    for (const auto& frag : trace.fragments) {
      internal::AppendChromeEvents(*frag, &first, &out);
    }
  });
  out += "]}";
  return out;
}

TraceSampler& EnableTailSampling(TraceSampler::Options options) {
  std::lock_guard<std::mutex> lock(g_sampler_mu);
  // Detach the sink before swapping the sampler so a racing fragment
  // never reaches a half-torn-down instance.
  internal::SetFragmentSink(nullptr);
  g_sampler.store(nullptr, std::memory_order_release);
  g_sampler_owner = std::make_unique<TraceSampler>(options);
  g_sampler.store(g_sampler_owner.get(), std::memory_order_release);
  internal::SetFragmentSink(&SamplerSink);
  return *g_sampler_owner;
}

void DisableTailSampling() {
  std::lock_guard<std::mutex> lock(g_sampler_mu);
  internal::SetFragmentSink(nullptr);
  g_sampler.store(nullptr, std::memory_order_release);
  // g_sampler_owner intentionally kept alive: callers may still hold a
  // reference from EnableTailSampling to read retained traces.
}

TraceSampler* GlobalTraceSampler() {
  return g_sampler.load(std::memory_order_acquire);
}

}  // namespace saga::obs
