#include "common/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>

#include "common/metrics.h"

namespace saga::obs {

namespace {

std::atomic<bool> g_tracing{false};

/// Completed fragment roots, in completion order.
struct TraceStore {
  std::mutex mu;
  std::vector<std::unique_ptr<SpanNode>> roots;
};

TraceStore& Store() {
  static TraceStore* store = new TraceStore();
  return *store;
}

std::atomic<internal::FragmentSink> g_fragment_sink{nullptr};

/// Open spans of the current thread, outermost first. Raw pointers:
/// ownership sits with the parent's children vector (or with the
/// ScopedSpan for segment roots) until completion.
thread_local std::vector<SpanNode*> t_span_stack;

/// Ambient trace context of the current thread. span_id tracks the
/// innermost open span; ScopedSpan maintains it.
thread_local TraceContext t_ctx;

/// Spans below this stack index belong to an enclosing segment and are
/// invisible to new spans: a ScopedTraceContext raises the boundary so
/// adopted-context work records its own fragment instead of nesting
/// under whatever the thread happened to have open (the simulated
/// transport delivers "remote" messages on the caller's thread).
thread_local size_t t_stack_boundary = 0;

uint64_t ProcessStartNs() {
  static const uint64_t start = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return start;
}

void CollectFragment(std::unique_ptr<SpanNode> fragment) {
  const bool trace_complete = fragment->parent_span_id == 0;
  if (internal::FragmentSink sink =
          g_fragment_sink.load(std::memory_order_acquire)) {
    sink(std::move(fragment), trace_complete);
    return;
  }
  TraceStore& store = Store();
  std::lock_guard<std::mutex> lock(store.mu);
  store.roots.push_back(std::move(fragment));
}

}  // namespace

uint64_t MonotonicNowNs() {
  // Capture the timebase first: on the very first call ProcessStartNs()
  // initializes its static *after* any clock read made before it, and a
  // now-before-start order would wrap the delta through uint64.
  const uint64_t start = ProcessStartNs();
  const uint64_t now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return now - start;
}

void SetTracingEnabled(bool enabled) {
  ProcessStartNs();  // pin the timebase before the first span
  g_tracing.store(enabled, std::memory_order_relaxed);
}

bool TracingEnabled() { return g_tracing.load(std::memory_order_relaxed); }

std::string TraceContext::TraceIdHex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(trace_id_hi),
                static_cast<unsigned long long>(trace_id_lo));
  return buf;
}

TraceContext CurrentTraceContext() { return t_ctx; }

namespace internal {

uint64_t NewId() {
  // SplitMix64 over a process-global counter, salted per thread. Not
  // cryptographic — ids only need to be unique within a trace horizon.
  static std::atomic<uint64_t> g_counter{0x9E3779B97F4A7C15ull};
  uint64_t z = g_counter.fetch_add(0x9E3779B97F4A7C15ull,
                                   std::memory_order_relaxed) +
               (static_cast<uint64_t>(ThreadId()) << 32);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) | 1;  // never 0: 0 means "no id"
}

void SetFragmentSink(FragmentSink sink) {
  g_fragment_sink.store(sink, std::memory_order_release);
}

}  // namespace internal

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx) {
  if (!TracingEnabled()) return;
  active_ = true;
  saved_ctx_ = t_ctx;
  saved_boundary_ = t_stack_boundary;
  t_ctx = ctx;
  t_stack_boundary = t_span_stack.size();
}

ScopedTraceContext::~ScopedTraceContext() {
  if (!active_) return;
  // Every span opened inside the segment must have closed (RAII
  // scoping guarantees it; a violation would corrupt the stack).
  t_ctx = saved_ctx_;
  t_stack_boundary = saved_boundary_;
}

ScopedSpan::ScopedSpan(std::string_view name) {
  if (Open(name)) node_->start_ns = MonotonicNowNs();
}

bool ScopedSpan::Open(std::string_view name) {
  if (!TracingEnabled()) return false;
  if (t_ctx.valid() && !t_ctx.sampled) return false;  // head-unsampled
  auto node = std::make_unique<SpanNode>();
  node->name = std::string(name);
  node->thread_id = internal::ThreadId();
  if (!t_ctx.valid()) {
    // No ambient context: this span initiates a new trace.
    t_ctx.trace_id_hi = internal::NewId();
    t_ctx.trace_id_lo = internal::NewId();
    t_ctx.span_id = 0;
    t_ctx.sampled = true;
    started_trace_ = true;
  }
  node->trace_id_hi = t_ctx.trace_id_hi;
  node->trace_id_lo = t_ctx.trace_id_lo;
  node->span_id = internal::NewId();
  node->parent_span_id = t_ctx.span_id;
  prev_parent_span_id_ = t_ctx.span_id;
  t_ctx.span_id = node->span_id;
  node_ = node.get();
  if (t_span_stack.size() <= t_stack_boundary) {
    root_ = std::move(node);  // fragment ownership until completion
  } else {
    t_span_stack.back()->children.push_back(std::move(node));
  }
  t_span_stack.push_back(node_);
  return true;
}

ScopedSpan::~ScopedSpan() {
  if (node_ != nullptr) Close(MonotonicNowNs());
}

void ScopedSpan::Close(uint64_t end_ns) {
  node_->duration_ns = end_ns - node_->start_ns;
  // Tracing may have been toggled mid-span; only pop if we are still
  // the innermost open span of this thread.
  if (!t_span_stack.empty() && t_span_stack.back() == node_) {
    t_span_stack.pop_back();
  }
  t_ctx.span_id = prev_parent_span_id_;
  if (root_ != nullptr) {
    CollectFragment(std::move(root_));
  }
  if (started_trace_) t_ctx = TraceContext{};
  node_ = nullptr;
}

void MarkSpanError(StatusCode code) {
  if (code == StatusCode::kOk) return;
  if (t_span_stack.size() <= t_stack_boundary) return;  // no open span
  SpanNode* node = t_span_stack.back();
  if (node->error_code == 0) {
    node->error_code = static_cast<uint32_t>(code);
  }
}

void MarkSpanError(const Status& status) {
  if (!status.ok()) MarkSpanError(status.code());
}

namespace {

void Accumulate(const SpanNode& node,
                std::map<std::string, SpanStats>& by_name) {
  SpanStats& s = by_name[node.name];
  s.name = node.name;
  s.count += 1;
  s.inclusive_ns += node.duration_ns;
  uint64_t child_ns = 0;
  for (const auto& child : node.children) {
    child_ns += child->duration_ns;
    Accumulate(*child, by_name);
  }
  s.exclusive_ns +=
      node.duration_ns > child_ns ? node.duration_ns - child_ns : 0;
}

}  // namespace

namespace internal {
void AppendChromeEvents(const SpanNode& node, bool* first, std::string* out) {
  if (!*first) *out += ",";
  *first = false;
  char buf[352];
  TraceContext id;
  id.trace_id_hi = node.trace_id_hi;
  id.trace_id_lo = node.trace_id_lo;
  std::snprintf(
      buf, sizeof(buf),
      "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
      "\"pid\":1,\"tid\":%u,\"args\":{\"trace_id\":\"%s\","
      "\"span_id\":\"%llx\",\"parent_span_id\":\"%llx\",\"error\":%u}}",
      node.name.c_str(), node.start_ns / 1e3, node.duration_ns / 1e3,
      node.thread_id, id.TraceIdHex().c_str(),
      static_cast<unsigned long long>(node.span_id),
      static_cast<unsigned long long>(node.parent_span_id),
      node.error_code);
  *out += buf;
  for (const auto& child : node.children) {
    AppendChromeEvents(*child, first, out);
  }
}
}  // namespace internal

std::vector<SpanStats> AggregateSpans() {
  std::map<std::string, SpanStats> by_name;
  VisitCollectedTraces(
      [&by_name](const SpanNode& root) { Accumulate(root, by_name); });
  std::vector<SpanStats> out;
  out.reserve(by_name.size());
  for (auto& [name, stats] : by_name) out.push_back(std::move(stats));
  std::sort(out.begin(), out.end(), [](const SpanStats& a,
                                       const SpanStats& b) {
    return a.inclusive_ns > b.inclusive_ns;
  });
  return out;
}

std::string SpanReport() {
  const std::vector<SpanStats> stats = AggregateSpans();
  if (stats.empty()) return "(no spans collected)\n";
  size_t name_width = 4;
  for (const auto& s : stats) name_width = std::max(name_width, s.name.size());
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-*s %10s %14s %14s %8s\n",
                static_cast<int>(name_width), "span", "count", "incl ms",
                "excl ms", "excl %");
  out += buf;
  uint64_t total_excl = 0;
  for (const auto& s : stats) total_excl += s.exclusive_ns;
  for (const auto& s : stats) {
    std::snprintf(buf, sizeof(buf), "%-*s %10llu %14.3f %14.3f %7.1f%%\n",
                  static_cast<int>(name_width), s.name.c_str(),
                  static_cast<unsigned long long>(s.count),
                  s.inclusive_ns / 1e6, s.exclusive_ns / 1e6,
                  total_excl == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(s.exclusive_ns) /
                            static_cast<double>(total_excl));
    out += buf;
  }
  return out;
}

void VisitCollectedTraces(const std::function<void(const SpanNode&)>& fn) {
  TraceStore& store = Store();
  std::lock_guard<std::mutex> lock(store.mu);
  for (const auto& root : store.roots) fn(*root);
}

void ClearTraces() {
  TraceStore& store = Store();
  std::lock_guard<std::mutex> lock(store.mu);
  store.roots.clear();
}

}  // namespace saga::obs
