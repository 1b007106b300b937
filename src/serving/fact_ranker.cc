#include "serving/fact_ranker.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"

namespace saga::serving {

FactRanker::FactRanker(const kg::KnowledgeGraph* kg,
                       const graph_engine::GraphView* view,
                       const embedding::TrainedEmbeddings* emb)
    : FactRanker(kg, view, emb, Options()) {}

FactRanker::FactRanker(const kg::KnowledgeGraph* kg,
                       const graph_engine::GraphView* view,
                       const embedding::TrainedEmbeddings* emb,
                       Options options)
    : kg_(kg), view_(view), emb_(emb), options_(options) {}

std::vector<FactRanker::RankedFact> FactRanker::Rank(
    kg::EntityId subject, kg::PredicateId predicate) const {
  auto stage = SAGA_STAGE("serving.ranker.rank");
  std::vector<RankedFact> ranked;
  const uint32_t ls = view_->local_entity(subject);
  const uint32_t lr = view_->local_relation(predicate);

  // Collect embedding scores first so we can z-normalize before
  // blending with popularity (scales differ per model).
  for (const kg::Value& object : kg_->ObjectsOf(subject, predicate)) {
    RankedFact f;
    f.object = object;
    if (object.is_entity()) {
      f.popularity = kg_->catalog().popularity(object.entity());
      const uint32_t lo = view_->local_entity(object.entity());
      if (ls != graph_engine::GraphView::kNotInView &&
          lr != graph_engine::GraphView::kNotInView &&
          lo != graph_engine::GraphView::kNotInView) {
        f.embedding_score = emb_->Score(ls, lr, lo);
      }
    }
    ranked.push_back(std::move(f));
  }
  if (ranked.empty()) return ranked;

  double mean = 0.0;
  for (const auto& f : ranked) mean += f.embedding_score;
  mean /= static_cast<double>(ranked.size());
  double var = 0.0;
  for (const auto& f : ranked) {
    var += (f.embedding_score - mean) * (f.embedding_score - mean);
  }
  const double stddev =
      std::sqrt(var / static_cast<double>(ranked.size())) + 1e-9;

  for (auto& f : ranked) {
    const double z = (f.embedding_score - mean) / stddev;
    f.score = options_.embedding_weight * z +
              options_.popularity_weight * f.popularity;
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedFact& a, const RankedFact& b) {
              return a.score > b.score;
            });
  return ranked;
}

}  // namespace saga::serving
