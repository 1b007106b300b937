#ifndef SAGA_SERVING_EMBEDDING_SERVICE_H_
#define SAGA_SERVING_EMBEDDING_SERVICE_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "ann/index.h"
#include "common/circuit_breaker.h"
#include "common/request_context.h"
#include "common/result.h"
#include "common/threadpool.h"
#include "embedding/embedding_store.h"
#include "kg/knowledge_graph.h"

namespace saga::serving {

/// The embedding service of Figure 1: vectorized entity representations
/// with similarity calculation and efficient k-NN retrieval.
///
/// Robustness: if the configured accelerated index (IVF)
/// repeatedly fails to build, the service degrades gracefully to exact
/// brute-force search instead of refusing to serve — correct answers,
/// reduced throughput. The degradation is observable via the
/// `serving.embedding.degraded_builds` counter.
///
/// Overload safety (the accelerated IVF index only):
/// - A circuit breaker guards the accelerated index: injected or real
///   search failures, and searches slower than `breaker_slow_call_ms`,
///   count as failures; once tripped, searches fall back to the exact
///   backup index until the breaker's half-open probes succeed.
/// - Hedged reads: when the accelerated search has not answered within
///   a p99-derived hedge timer, a backup exact-search probe fires and
///   the first response wins — one slow replica/shard no longer defines
///   tail latency (The Tail at Scale). A fired hedge is not a breaker
///   failure: the primary records its own outcome when it finishes.
class EmbeddingService {
 public:
  enum class IndexKind {
    kExact,
    kIvf,
  };

  /// Hedged-read policy for accelerated (IVF) searches.
  struct HedgeOptions {
    bool enabled = false;
    /// Fixed hedge timer; <= 0 derives the timer from the live p99 of
    /// `serving.embedding.search_ns` once enough samples are recorded.
    double fixed_hedge_ms = 0.0;
  };

  struct Options {
    IndexKind index = IndexKind::kExact;
    int ivf_lists = 32;
    /// Circuit breaker for the accelerated search path (metrics under
    /// `serving.breaker.ann_*`). Consulted by every search; exact-index
    /// searches have nothing to guard and skip it.
    bool enable_breaker = false;
    CircuitBreaker::Options breaker;
    /// Searches slower than this count as breaker failures (0 = only
    /// hard failures count). A latency-injected ANN index trips the
    /// breaker through this path.
    double breaker_slow_call_ms = 0.0;
    HedgeOptions hedge;
  };

  EmbeddingService(embedding::EmbeddingStore store,
                   const kg::KnowledgeGraph* kg);
  EmbeddingService(embedding::EmbeddingStore store,
                   const kg::KnowledgeGraph* kg, Options options);

  /// k most similar entities to `id`, excluding itself. A valid
  /// `type_filter` restricts hits to entities with that type or a
  /// subtype. Runs cooperative deadline checks, the `ann.search`
  /// fault point, the ANN circuit breaker, and hedged reads (all per
  /// Options). DeadlineExceeded when the budget is spent before a
  /// useful answer exists.
  Result<std::vector<std::pair<kg::EntityId, double>>> TopKNeighbors(
      kg::EntityId id, size_t k, kg::TypeId type_filter,
      const RequestContext& ctx) const;

  const embedding::EmbeddingStore& store() const { return store_; }
  /// The index searches run on. It and its exact twin (built when
  /// hedging or the breaker is on) read the store's rows in place.
  const ann::VectorIndex& index() const { return *index_; }

  /// Null unless Options::enable_breaker.
  CircuitBreaker* ann_breaker() const { return ann_breaker_.get(); }

  /// Current hedge timer (for tests / the overload bench).
  double HedgeDelayMs() const;
  /// Primary searches waiting for a hedge worker (0 without hedging).
  /// The queue holds at most kHedgeQueuePerThread per hedge thread; a
  /// hedged search that finds it full sheds to the exact backup.
  size_t HedgeQueueDepth() const {
    return hedge_pool_ != nullptr ? hedge_pool_->queue_depth() : 0;
  }
  /// Workers running primary searches so the caller can hedge.
  static constexpr int kHedgeThreads = 2;
  static constexpr size_t kHedgeQueuePerThread = 4;

 private:
  /// Builds (with retries) the configured index, falling back to exact
  /// search on persistent failure.
  void BuildIndexWithFallback();
  /// An index of `kind` over the store's shared rows.
  std::unique_ptr<ann::VectorIndex> MakeIndex(IndexKind kind) const;

  /// True when searches go through an accelerated (hedgeable,
  /// breaker-guarded) index rather than exact brute force.
  bool UsesAcceleratedIndex() const {
    return !degraded_ && options_.index != IndexKind::kExact;
  }
  /// Raw neighbor search applying breaker / hedging / fault injection.
  Result<std::vector<ann::Neighbor>> SearchWithPolicies(
      std::span<const float> query, size_t fetch,
      const RequestContext& ctx) const;
  Result<std::vector<ann::Neighbor>> HedgedSearch(
      std::span<const float> query, size_t fetch,
      const RequestContext& ctx) const;
  /// The one breaker outcome of a search Allow() admitted: a failure
  /// when `s` is one, when the search took longer than
  /// `breaker_slow_call_ms`, or when it ended past its deadline.
  void RecordAnnOutcome(const Status& s, double elapsed_ms,
                        bool expired) const;

  embedding::EmbeddingStore store_;
  const kg::KnowledgeGraph* kg_;
  Options options_;
  std::unique_ptr<ann::VectorIndex> index_;
  bool degraded_ = false;
  std::unique_ptr<CircuitBreaker> ann_breaker_;
  /// Exact brute-force view of the accelerated index's rows: hedge
  /// backup and breaker-open fallback. Built only when those are on.
  std::unique_ptr<ann::VectorIndex> exact_backup_;
  /// Runs primary searches for hedged reads. Declared last: destroyed
  /// (and drained) first, so in-flight hedge tasks never outlive the
  /// index they search.
  std::unique_ptr<ThreadPool> hedge_pool_;
};

}  // namespace saga::serving

#endif  // SAGA_SERVING_EMBEDDING_SERVICE_H_
