// In-benchmark tracing for the traced run. Spans are opened by the
// link-time wrappers in wrap.cc around calls into the program's public
// functions, so the program itself carries no tracing code. Each client
// thread owns one TraceState; a thread with no TraceState installed
// (every thread outside the traced run) passes straight through.
#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <vector>

namespace servebench {

/// Every timed layer. kOp is the per-request root opened by the client
/// loop; its self time is the time no named layer covers.
enum class Layer : uint8_t {
  kOp,
  kAdmission,       // serving::AdmissionController::TryAdmit
  kQaGlue,          // annotation::QueryAnswerer::Ask
  kAnnotate,        // annotation::Annotator::Annotate
  kDetect,          // annotation::MentionDetector::Detect
  kCandidates,      // annotation::CandidateGenerator::Candidates
  kRerank,          // annotation::ContextReranker::Rerank
  kProfileText,     // annotation::ContextReranker::EntityProfileText
  kProfileEmbed,    // text::HashingVectorizer::Embed (profiles only)
  kKgObjects,       // kg::KnowledgeGraph::ObjectsOf
  kRank,            // serving::FactRanker::Rank
  kRelatedFuse,     // serving::RelatedEntitiesService::Related
  kAnnSearch,       // serving::EmbeddingService::TopKNeighbors
  kPpr,             // graph_engine::PprEngine::TopKRelated
  kKvCacheGet,      // serving::EmbeddingKvCache::Get
  kKvCachePut,      // serving::EmbeddingKvCache::Put
  kKvStoreGet,      // storage::KvStore::Get
  kKvStorePut,      // storage::KvStore::Put
  kCount,
};
constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

/// Span name as written to the span file and used in metric names.
std::string_view LayerName(Layer layer);

/// Work counts taken at the same boundaries as the spans.
enum class Tally : uint8_t {
  kMentions,        // mentions returned by Detect
  kCandidates,      // candidates returned by Candidates
  kRankedFacts,     // facts returned by Rank
  kCount,
};
constexpr size_t kNumTallies = static_cast<size_t>(Tally::kCount);

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  uint64_t request_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  // index into the same thread's span buffer
  Layer layer = Layer::kOp;
};

struct LayerTotals {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

/// One client thread's spans and running totals. Totals cover every
/// traced call; the span buffer keeps the first `span_capacity` spans.
class TraceState {
 public:
  TraceState(uint32_t thread_index, size_t span_capacity);

  void Begin(Layer layer);
  /// Closes the innermost span; returns its duration in ns.
  uint64_t End();
  void Add(Tally tally, uint64_t n) {
    tallies_[static_cast<size_t>(tally)] += n;
  }
  /// True when the innermost open span is `layer` and nothing has run
  /// under it yet; the caller's call then counts as that child, so the
  /// next call returns false.
  bool TakeFirstChildOf(Layer layer);

  void set_request_id(uint64_t id) { request_id_ = id; }
  uint32_t thread_index() const { return thread_index_; }
  const std::array<LayerTotals, kNumLayers>& totals() const {
    return totals_;
  }
  uint64_t tally(Tally t) const { return tallies_[static_cast<size_t>(t)]; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Durations of every kKvCachePut span, for its p99.
  const std::vector<uint64_t>& put_ns() const { return put_ns_; }

 private:
  struct Frame {
    Layer layer;
    uint64_t start_ns;
    uint64_t child_ns;
    uint32_t children;
    int32_t span;
  };
  static constexpr int kMaxDepth = 32;

  uint32_t thread_index_;
  size_t span_capacity_;
  uint64_t request_id_ = 0;
  int depth_ = 0;
  std::array<Frame, kMaxDepth> stack_{};
  std::array<LayerTotals, kNumLayers> totals_{};
  std::array<uint64_t, kNumTallies> tallies_{};
  std::vector<SpanRecord> spans_;
  std::vector<uint64_t> put_ns_;
};

inline thread_local TraceState* g_current_trace = nullptr;

/// The calling thread's trace state; null outside the traced run.
inline TraceState* Current() { return g_current_trace; }
/// Installs `state` for the calling thread (null uninstalls).
inline void Install(TraceState* state) { g_current_trace = state; }

/// RAII span on the calling thread's trace state (no-op when null).
class ScopedSpan {
 public:
  ScopedSpan(TraceState* state, Layer layer) : state_(state) {
    if (state_ != nullptr) state_->Begin(layer);
  }
  ~ScopedSpan() {
    if (state_ != nullptr) state_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceState* state_;
};

/// Writes every buffered span as CSV
/// (thread,request_id,span,parent,name,start_ns,end_ns).
bool WriteSpans(const std::vector<const TraceState*>& states,
                const char* path);

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
