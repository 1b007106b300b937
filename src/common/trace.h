#ifndef SAGA_COMMON_TRACE_H_
#define SAGA_COMMON_TRACE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace saga::obs {

/// Nanoseconds on the steady clock since process start — the shared
/// timebase for spans and log lines, so the two correlate.
uint64_t MonotonicNowNs();

/// Tracing is off by default (spans then cost one relaxed atomic load);
/// benches, saga_cli stats, and tests turn it on for the run.
void SetTracingEnabled(bool enabled);
bool TracingEnabled();

/// Request-scoped trace identity, Dapper-style: a 128-bit trace id
/// naming the request end to end, plus the span id of the innermost
/// open span (the parent any new child — on this thread, a pool
/// worker, or a remote replica — attaches under).
///
/// The context travels three ways:
///  - same thread: ambient (thread-local), maintained by ScopedSpan;
///  - across ThreadPool::Submit: captured at submit time and installed
///    in the worker via ScopedTraceContext, so pool-hopped spans
///    re-parent instead of silently starting a disconnected tree;
///  - across the wire: serialized into replication Messages; the
///    receiving replica adopts it, so a quorum write's spans stitch
///    into one trace across SimTransport.
struct TraceContext {
  uint64_t trace_id_hi = 0;
  uint64_t trace_id_lo = 0;
  /// Innermost open span — the parent for new spans. 0 at the trace
  /// root (the span that initiated the trace has no parent).
  uint64_t span_id = 0;

  bool valid() const { return (trace_id_hi | trace_id_lo) != 0; }
  /// 32 lowercase hex chars, e.g. for Chrome trace args and exemplars.
  std::string TraceIdHex() const;
};

/// Ambient context of the calling thread (invalid when no trace is
/// active). Capture this before handing work to another thread or
/// serializing a message; the far side installs it with
/// ScopedTraceContext.
TraceContext CurrentTraceContext();

/// Installs `ctx` as the ambient context for the current scope and
/// opens a new trace *segment*: spans created inside are recorded as a
/// separate fragment (parented by ctx.span_id through ids, not by the
/// thread's enclosing span objects). This is what a pool worker or a
/// message handler wraps around its work — even when, as in the
/// simulated transport, the "remote" handler happens to run on the
/// same OS thread as the client.
///
/// Installing an invalid context is allowed and simply detaches: spans
/// inside start a fresh trace of their own.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_ctx_;
  size_t saved_boundary_ = 0;
  bool active_ = false;
};

/// One completed timed region. Trees (fragments) are owned by the
/// global trace store once their fragment root finishes.
struct SpanNode {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  uint32_t thread_id = 0;
  /// Trace identity: every span carries the full linkage so fragments
  /// recorded on different threads/replicas stitch back together.
  uint64_t trace_id_hi = 0;
  uint64_t trace_id_lo = 0;
  uint64_t span_id = 0;
  /// 0 for the span that initiated the trace.
  uint64_t parent_span_id = 0;
  /// StatusCode of the first error marked on this span (0 = OK); set
  /// by MarkSpanError from deadline checks and failure paths, exported
  /// as the span's `error` arg by DumpChromeTraceJson.
  uint32_t error_code = 0;
  std::vector<std::unique_ptr<SpanNode>> children;
};

/// RAII tracing span. Spans started while another span is open in the
/// same segment of the same thread nest under it; when a segment-root
/// span closes, its finished fragment moves into the process-global
/// trace store, where the export functions below read it. The span
/// that finds no ambient context starts a new trace.
///
/// Span names follow the metric scheme: `subsystem.component.stage`.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  /// ScopedStage opens and closes its span with its own clock reads.
  friend class ScopedStage;
  ScopedSpan() = default;
  /// Opens span `name` unless tracing is off; the caller stamps
  /// `node_->start_ns`.
  bool Open(std::string_view name);
  /// Closes the open span at `end_ns` (a MonotonicNowNs() reading).
  void Close(uint64_t end_ns);

  SpanNode* node_ = nullptr;          // null when tracing was disabled
  std::unique_ptr<SpanNode> root_;    // set only for segment roots
  uint64_t prev_parent_span_id_ = 0;  // ambient span id to restore
  bool started_trace_ = false;        // this span initiated the trace
};

/// Marks the innermost open span of this thread as failed with `code`.
/// No-op when no span is open, when tracing is off, or (the Status
/// overload) when the status is OK. Wired into RequestContext::Check
/// and the serving failure paths so a failed request's trace names the
/// span that failed (the `error` arg of DumpChromeTraceJson) without
/// per-call-site plumbing. The first error marked on a span wins.
void MarkSpanError(StatusCode code);
void MarkSpanError(const Status& status);

/// Aggregated per-name timing across all collected span trees.
/// Exclusive time is inclusive minus the inclusive time of direct
/// children — "where did the time actually go".
struct SpanStats {
  std::string name;
  uint64_t count = 0;
  uint64_t inclusive_ns = 0;
  uint64_t exclusive_ns = 0;
};

/// Sorted by inclusive time, descending.
std::vector<SpanStats> AggregateSpans();

/// Fixed-width inclusive/exclusive-time table of AggregateSpans().
std::string SpanReport();

/// Visits every collected fragment root under the store lock (tests /
/// export tooling; do not re-enter the trace API from `fn`).
void VisitCollectedTraces(const std::function<void(const SpanNode&)>& fn);

/// Drops all collected span trees (not in-flight spans).
void ClearTraces();

/// Every span of every collected fragment as one Chrome trace_event
/// JSON document (`{"traceEvents":[...]}`, loadable in chrome://tracing
/// or Perfetto). Each event carries its trace_id, span_id,
/// parent_span_id and error code as args, so fragments recorded on
/// pool workers or remote replicas stitch back into their trace.
std::string DumpChromeTraceJson();

}  // namespace saga::obs

#endif  // SAGA_COMMON_TRACE_H_
