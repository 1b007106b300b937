#include "embedding/evaluator.h"

#include <algorithm>

#include "common/hash.h"
#include "embedding/negative_sampler.h"

namespace saga::embedding {

double EvaluateVerificationAuc(
    const TrainedEmbeddings& emb, const graph_engine::GraphView& view,
    const std::vector<graph_engine::ViewEdge>& test, Rng* rng) {
  if (test.empty()) return 0.5;
  const std::unique_ptr<KgeModel> model = MakeModel(emb.model);
  NegativeSampler sampler(view);
  std::vector<std::pair<double, bool>> scored;
  scored.reserve(test.size() * 2);
  bool corrupt_tail = true;
  for (const auto& e : test) {
    scored.emplace_back(
        model->Score(emb.entities.Row(e.src), emb.relations.Row(e.relation),
                     emb.entities.Row(e.dst), emb.dim),
        true);
    const auto neg = sampler.Corrupt(e, corrupt_tail, rng);
    corrupt_tail = !corrupt_tail;
    scored.emplace_back(
        model->Score(emb.entities.Row(neg.src),
                     emb.relations.Row(neg.relation),
                     emb.entities.Row(neg.dst), emb.dim),
        false);
  }
  return Auc(scored);
}

double Auc(const std::vector<std::pair<double, bool>>& scored) {
  // Rank-sum (Mann-Whitney U) formulation with tie handling.
  std::vector<std::pair<double, bool>> sorted = scored;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  double rank_sum_pos = 0.0;
  size_t num_pos = 0;
  size_t num_neg = 0;
  size_t i = 0;
  while (i < sorted.size()) {
    size_t j = i;
    while (j < sorted.size() && sorted[j].first == sorted[i].first) ++j;
    const double avg_rank = (static_cast<double>(i) + 1.0 +
                             static_cast<double>(j)) /
                            2.0;
    for (size_t k = i; k < j; ++k) {
      if (sorted[k].second) {
        rank_sum_pos += avg_rank;
        ++num_pos;
      } else {
        ++num_neg;
      }
    }
    i = j;
  }
  if (num_pos == 0 || num_neg == 0) return 0.5;
  const double u = rank_sum_pos -
                   static_cast<double>(num_pos) * (num_pos + 1) / 2.0;
  return u / (static_cast<double>(num_pos) * static_cast<double>(num_neg));
}

}  // namespace saga::embedding
