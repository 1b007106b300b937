#include "serving/embedding_service.h"

#include <algorithm>
#include <chrono>

#include "ann/brute_force_index.h"
#include "ann/ivf_index.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/retry.h"

namespace saga::serving {

namespace {

constexpr ann::Metric kMetric = ann::Metric::kCosine;
/// Lists an IVF search probes.
constexpr int kIvfNprobe = 4;
/// The adaptive hedge timer's floor (the p99 of a warm cache is ~0),
/// and its value until kMinHedgeSamples searches have been timed.
constexpr double kMinHedgeMs = 0.2;
constexpr double kDefaultHedgeMs = 5.0;
constexpr uint64_t kMinHedgeSamples = 50;

Status NoEmbedding(kg::EntityId id) {
  return Status::NotFound("no embedding for entity " +
                          std::to_string(id.value()));
}

}  // namespace

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
    hedge_pool_ = std::make_unique<ThreadPool>(
        kHedgeThreads, kHedgeThreads * kHedgeQueuePerThread);
  }
}

std::unique_ptr<ann::VectorIndex> EmbeddingService::MakeIndex(
    IndexKind kind) const {
  switch (kind) {
    case IndexKind::kIvf: {
      ann::IvfIndex::Options ivf;
      ivf.num_lists = options_.ivf_lists;
      ivf.nprobe = kIvfNprobe;
      return std::make_unique<ann::IvfIndex>(store_.rows(), kMetric, ivf);
    }
    case IndexKind::kExact:
      break;
  }
  return std::make_unique<ann::BruteForceIndex>(store_.rows(), kMetric);
}

void EmbeddingService::BuildIndexWithFallback() {
  RetryPolicy retry;
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
    if (e == id) continue;
    if (type_filter.valid() && kg_ != nullptr &&
        !kg_->IsInstanceOf(e, type_filter)) {
      continue;
    }
    out.emplace_back(e, n.similarity);
  }
  return out;
}

double EmbeddingService::HedgeDelayMs() const {
  const HedgeOptions& h = options_.hedge;
  if (h.fixed_hedge_ms > 0) return h.fixed_hedge_ms;
  const obs::LatencyHistogram& hist =
      SAGA_LATENCY("serving.embedding.search_ns");
  if (hist.Count() < kMinHedgeSamples) return kDefaultHedgeMs;
  return std::max(kMinHedgeMs, hist.PercentileNs(99.0) / 1e6);
}

void EmbeddingService::RecordAnnOutcome(const Status& s, double elapsed_ms,
                                        bool expired) const {
  if (ann_breaker_ == nullptr) return;
  const bool slow = options_.breaker_slow_call_ms > 0 &&
                    elapsed_ms > options_.breaker_slow_call_ms;
  if (CircuitBreaker::IsFailure(s) || slow || expired) {
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
  RecordAnnOutcome(s, sw.ElapsedMillis(), ctx.expired());
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
  // `this` and the span are safe: the query is a row of store_, and
  // hedge_pool_ is declared last and thus destroyed (drained) first.
  // The worker copies the deadline: the caller's context may be gone
  // by the time the primary finishes.
  const Deadline deadline = ctx.deadline();
  const Status submitted =
      hedge_pool_->TrySubmit([this, st, query, fetch, deadline] {
        bool skipped = false;
        {
          std::lock_guard<std::mutex> lock(st->mu);
          skipped = st->claimed;
        }
        if (skipped) {
          // The backup already answered: a queued primary has no one to
          // race, so it frees the worker for the next request. The
          // index never ran, so the breaker records no outcome (a hedge
          // timer below the worker's wake-up time says nothing about
          // the index); a half-open probe slot the search held is freed.
          SAGA_COUNTER("serving.hedge.primary_skipped").Add();
          if (ann_breaker_ != nullptr) ann_breaker_->RecordNoOutcome();
          return;
        }
        Stopwatch sw;
        Status s = Faults().armed() ? Faults().InjectOp("ann.search")
                                    : Status::OK();
        std::vector<ann::Neighbor> hits;
        if (s.ok()) hits = index_->Search(query, fetch);
        // Recorded before the result is published, so a caller that
        // takes the primary's answer finds its outcome already counted.
        RecordAnnOutcome(s, sw.ElapsedMillis(), deadline.expired());
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
    // slow searches, so answer with the exact backup straight away. The
    // index could not take the search, which the breaker counts.
    SAGA_COUNTER("serving.hedge.shed").Add();
    RecordAnnOutcome(submitted, 0.0, false);
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
      return std::move(st->primary_hits);
    }
  }
  // Primary overran the hedge timer (or failed): the exact backup races
  // it from here. The primary records its own outcome when it ends.
  SAGA_COUNTER("serving.hedge.fired").Add();
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
