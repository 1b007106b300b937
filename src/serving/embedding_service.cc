#include "serving/embedding_service.h"

#include <algorithm>
#include <chrono>

#include "ann/brute_force_index.h"
#include "ann/ivf_index.h"
#include "ann/quantized_index.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace saga::serving {

EmbeddingService::EmbeddingService(embedding::EmbeddingStore store,
                                   const kg::KnowledgeGraph* kg)
    : EmbeddingService(std::move(store), kg, Options()) {}

EmbeddingService::EmbeddingService(embedding::EmbeddingStore store,
                                   const kg::KnowledgeGraph* kg,
                                   Options options)
    : store_(std::move(store)), kg_(kg), options_(options) {
  BuildIndexWithFallback();
  if (options_.enable_breaker) {
    ann_breaker_ =
        std::make_unique<CircuitBreaker>("serving.breaker.ann",
                                         options_.breaker);
  }
  if ((options_.hedge.enabled || options_.enable_breaker) &&
      UsesAcceleratedIndex()) {
    exact_backup_ = MakeIndex(IndexKind::kExact);
  }
  if (options_.hedge.enabled && exact_backup_ != nullptr) {
    const int threads = std::max(1, options_.hedge.threads);
    hedge_pool_ = std::make_unique<ThreadPool>(
        threads, static_cast<size_t>(threads) * kHedgeQueuePerThread);
  }
}

std::unique_ptr<ann::VectorIndex> EmbeddingService::MakeIndex(
    IndexKind kind) const {
  switch (kind) {
    case IndexKind::kIvf: {
      ann::IvfIndex::Options ivf;
      ivf.num_lists = options_.ivf_lists;
      ivf.nprobe = options_.ivf_nprobe;
      return std::make_unique<ann::IvfIndex>(store_.rows(), options_.metric,
                                             ivf);
    }
    case IndexKind::kQuantized:
      return std::make_unique<ann::QuantizedBruteForceIndex>(
          store_.rows(), options_.metric);
    case IndexKind::kExact:
      break;
  }
  return std::make_unique<ann::BruteForceIndex>(store_.rows(),
                                                options_.metric);
}

void EmbeddingService::BuildIndexWithFallback() {
  RetryPolicy retry(options_.retry);
  const Status s = retry.Run("serving.index_build", [&] {
    // The fault point covers accelerated builds only, so the exact
    // fallback below can never be failed by injection.
    if (options_.index != IndexKind::kExact && Faults().armed()) {
      SAGA_RETURN_IF_ERROR(Faults().InjectOp("serving.index_build"));
    }
    index_ = MakeIndex(options_.index);
    return Status::OK();
  });
  if (s.ok()) return;
  // Degraded mode: serve exact brute-force results rather than not
  // serving at all.
  SAGA_LOG(Warning) << "accelerated index build failed (" << s
                    << "); serving degraded to exact search";
  degraded_ = true;
  SAGA_COUNTER("serving.embedding.degraded_builds").Add();
  index_ = MakeIndex(IndexKind::kExact);
}

namespace {

Status NoEmbedding(kg::EntityId id) {
  return Status::NotFound("no embedding for entity " +
                          std::to_string(id.value()));
}

}  // namespace

Result<std::vector<float>> EmbeddingService::GetEmbedding(
    kg::EntityId id) const {
  const std::span<const float> row = store_.Get(id);
  if (row.empty()) return NoEmbedding(id);
  return std::vector<float>(row.begin(), row.end());
}

Result<double> EmbeddingService::Similarity(kg::EntityId a,
                                            kg::EntityId b) const {
  const std::span<const float> va = store_.Get(a);
  const std::span<const float> vb = store_.Get(b);
  if (va.empty() || vb.empty()) return NoEmbedding(va.empty() ? a : b);
  return ann::Similarity(options_.metric, va.data(), vb.data(), va.size());
}

std::vector<double> EmbeddingService::BatchSimilarity(
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs) const {
  std::vector<double> out;
  out.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    const Result<double> sim = Similarity(a, b);
    out.push_back(sim.ok() ? *sim : 0.0);
  }
  return out;
}

bool EmbeddingService::PassesTypeFilter(kg::EntityId id,
                                        kg::TypeId type) const {
  if (!type.valid() || kg_ == nullptr) return true;
  for (kg::TypeId has : kg_->catalog().record(id).types) {
    if (kg_->ontology().IsSubtypeOf(has, type)) return true;
  }
  return false;
}

Result<std::vector<std::pair<kg::EntityId, double>>>
EmbeddingService::TopKNeighbors(kg::EntityId id, size_t k,
                                kg::TypeId type_filter,
                                const RequestContext& ctx) const {
  auto stage = SAGA_STAGE("serving.embedding.topk");
  SAGA_RETURN_IF_ERROR(ctx.Check("serving.embedding.topk"));
  const std::span<const float> query = store_.Get(id);
  if (query.empty()) return NoEmbedding(id);
  obs::ScopedLatency timer(SAGA_LATENCY("serving.embedding.search_ns"));
  // One extra for the entity itself; over-fetch when filtering so
  // enough survivors remain.
  const size_t fetch = type_filter.valid() ? (k + 1) * 8 + 16 : k + 1;
  SAGA_ASSIGN_OR_RETURN(std::vector<ann::Neighbor> hits,
                        SearchWithPolicies(query, fetch, ctx));
  // A correct answer after the deadline is still a failed request.
  SAGA_RETURN_IF_ERROR(ctx.Check("serving.embedding.search"));
  std::vector<std::pair<kg::EntityId, double>> out;
  for (const ann::Neighbor& n : hits) {
    if (out.size() == k) break;
    const kg::EntityId e(n.label);
    if (e == id || !PassesTypeFilter(e, type_filter)) continue;
    out.emplace_back(e, n.similarity);
  }
  return out;
}

double EmbeddingService::HedgeDelayMs() const {
  const HedgeOptions& h = options_.hedge;
  if (h.fixed_hedge_ms > 0) return h.fixed_hedge_ms;
  const obs::LatencyHistogram& hist =
      SAGA_LATENCY("serving.embedding.search_ns");
  if (hist.Count() < h.min_samples) return h.default_hedge_ms;
  return std::max(h.min_hedge_ms, hist.PercentileNs(99.0) / 1e6);
}

void EmbeddingService::RecordAnnOutcome(const Status& s, double elapsed_ms,
                                        const RequestContext& ctx) const {
  if (ann_breaker_ == nullptr) return;
  const bool slow = options_.breaker_slow_call_ms > 0 &&
                    elapsed_ms > options_.breaker_slow_call_ms;
  if (CircuitBreaker::IsFailure(s) || slow || ctx.expired()) {
    ann_breaker_->RecordFailure();
  } else {
    ann_breaker_->RecordSuccess();
  }
}

Result<std::vector<ann::Neighbor>> EmbeddingService::SearchWithPolicies(
    std::span<const float> query, size_t fetch,
    const RequestContext& ctx) const {
  if (!UsesAcceleratedIndex()) {
    // Exact search is the ground truth: no breaker, no hedge, no
    // injected replica faults.
    return index_->Search(query, fetch);
  }
  if (ann_breaker_ != nullptr && !ann_breaker_->Allow().ok()) {
    // Open breaker: serve correct-but-slower exact results instead of
    // hammering the struggling index (and instead of failing). A
    // breaker always comes with the exact backup.
    SAGA_COUNTER("serving.breaker.fallbacks").Add();
    return exact_backup_->Search(query, fetch);
  }
  if (hedge_pool_ != nullptr) {
    return HedgedSearch(query, fetch, ctx);
  }
  Stopwatch sw;
  Status s = Faults().armed() ? Faults().InjectOp("ann.search")
                              : Status::OK();
  std::vector<ann::Neighbor> hits;
  if (s.ok()) hits = index_->Search(query, fetch);
  RecordAnnOutcome(s, sw.ElapsedMillis(), ctx);
  if (!s.ok()) {
    if (exact_backup_ != nullptr) {
      // Closed breaker, failed search: the exact backup masks it.
      SAGA_COUNTER("serving.embedding.exact_fallbacks").Add();
      return exact_backup_->Search(query, fetch);
    }
    return s;
  }
  return hits;
}

namespace {

/// First-response-wins rendezvous between the accelerated primary (on
/// the hedge pool) and the exact backup (inline on the caller).
struct HedgeState {
  std::mutex mu;
  std::condition_variable cv;
  bool primary_finished = false;
  Status primary_status;
  /// Set by whichever probe claims the win first.
  bool claimed = false;
  std::vector<ann::Neighbor> primary_hits;
};

}  // namespace

Result<std::vector<ann::Neighbor>> EmbeddingService::HedgedSearch(
    std::span<const float> query, size_t fetch,
    const RequestContext& ctx) const {
  auto st = std::make_shared<HedgeState>();
  // Raw pointer and span are safe: the query is a row of store_, and
  // hedge_pool_ is declared after index_ and store_ and thus destroyed
  // (drained) before them.
  const ann::VectorIndex* idx = index_.get();
  const Status submitted = hedge_pool_->TrySubmit([st, idx, query, fetch] {
    {
      // The backup already answered: a queued primary has no one to
      // race, so it frees the worker for the next request.
      std::lock_guard<std::mutex> lock(st->mu);
      if (st->claimed) {
        SAGA_COUNTER("serving.hedge.primary_skipped").Add();
        return;
      }
    }
    Status s = Faults().armed() ? Faults().InjectOp("ann.search")
                                : Status::OK();
    std::vector<ann::Neighbor> hits;
    if (s.ok()) hits = idx->Search(query, fetch);
    std::lock_guard<std::mutex> lock(st->mu);
    st->primary_finished = true;
    st->primary_status = s;
    if (s.ok() && !st->claimed) {
      st->claimed = true;
      st->primary_hits = std::move(hits);
    }
    st->cv.notify_all();
  });
  if (!submitted.ok()) {
    // The pool's queue is full: primaries are already backed up behind
    // slow searches, so answer with the exact backup straight away.
    SAGA_COUNTER("serving.hedge.shed").Add();
    return exact_backup_->Search(query, fetch);
  }

  double wait_ms = HedgeDelayMs();
  if (!ctx.deadline().infinite()) {
    wait_ms = std::min(wait_ms, std::max(0.0, ctx.deadline().RemainingMillis()));
  }
  {
    std::unique_lock<std::mutex> lock(st->mu);
    st->cv.wait_for(lock,
                    std::chrono::duration<double, std::milli>(wait_ms),
                    [&] { return st->primary_finished; });
    if (st->primary_finished && st->primary_status.ok()) {
      RecordAnnOutcome(Status::OK(), 0.0, ctx);
      return std::move(st->primary_hits);
    }
  }
  // Primary overran the hedge timer (or failed): one latency SLO miss
  // for the breaker, and the exact backup races it from here.
  SAGA_COUNTER("serving.hedge.fired").Add();
  RecordAnnOutcome(Status::DeadlineExceeded("ann primary overran hedge timer"),
                   wait_ms, ctx);
  std::vector<ann::Neighbor> backup = exact_backup_->Search(query, fetch);
  std::lock_guard<std::mutex> lock(st->mu);
  if (st->claimed) {
    // Primary slipped in while the backup was scanning: it responded
    // first, it wins.
    return std::move(st->primary_hits);
  }
  st->claimed = true;
  SAGA_COUNTER("serving.hedge.backup_wins").Add();
  return backup;
}

}  // namespace saga::serving
