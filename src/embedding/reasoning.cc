#include "embedding/reasoning.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "embedding/trainer.h"  // Softplus / Sigmoid

namespace saga::embedding {

namespace {

constexpr int kBoxDim = 32;
constexpr double kBoxLearningRate = 0.3;
constexpr int kBoxNegatives = 10;
/// Weight of the inside-the-box distance term (alpha in Query2Box).
constexpr double kInsideWeight = 0.2;
constexpr uint64_t kBoxSeed = 7;

/// relation -> (src -> dst list) directed adjacency of a view.
std::map<uint32_t, std::map<uint32_t, std::vector<uint32_t>>>
RelationAdjacency(const graph_engine::GraphView& view) {
  std::map<uint32_t, std::map<uint32_t, std::vector<uint32_t>>> adj;
  for (const auto& e : view.edges()) {
    adj[e.relation][e.src].push_back(e.dst);
  }
  return adj;
}

}  // namespace

std::vector<PathQuerySample> SamplePathQueries(
    const graph_engine::GraphView& view, size_t num_samples, int max_hops,
    Rng* rng) {
  const auto adj = RelationAdjacency(view);
  std::vector<PathQuerySample> samples;
  if (view.edges().empty()) return samples;
  size_t attempts = 0;
  while (samples.size() < num_samples && attempts < num_samples * 50) {
    ++attempts;
    // Seed at a random edge so hop 1 always succeeds.
    const auto& seed = view.edges()[rng->Uniform(view.edges().size())];
    PathQuerySample sample;
    sample.query.anchor = seed.src;
    sample.query.relations.push_back(seed.relation);
    uint32_t current = seed.dst;
    const int hops = 1 + static_cast<int>(rng->Uniform(
                             static_cast<uint64_t>(max_hops)));
    bool dead_end = false;
    for (int h = 1; h < hops; ++h) {
      // Pick a random outgoing relation from `current`.
      std::vector<std::pair<uint32_t, uint32_t>> options;  // (rel, dst)
      for (const auto& [rel, by_src] : adj) {
        auto it = by_src.find(current);
        if (it == by_src.end()) continue;
        options.emplace_back(rel,
                             it->second[rng->Uniform(it->second.size())]);
      }
      if (options.empty()) {
        dead_end = true;
        break;
      }
      const auto& [rel, dst] = options[rng->Uniform(options.size())];
      sample.query.relations.push_back(rel);
      current = dst;
    }
    if (dead_end) continue;
    sample.answer = current;
    samples.push_back(std::move(sample));
  }
  return samples;
}

std::vector<uint32_t> TrueAnswers(const graph_engine::GraphView& view,
                                  const PathQuery& query) {
  const auto adj = RelationAdjacency(view);
  std::set<uint32_t> frontier{query.anchor};
  for (uint32_t rel : query.relations) {
    std::set<uint32_t> next;
    auto rel_it = adj.find(rel);
    if (rel_it == adj.end()) return {};
    for (uint32_t node : frontier) {
      auto it = rel_it->second.find(node);
      if (it == rel_it->second.end()) continue;
      next.insert(it->second.begin(), it->second.end());
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  return std::vector<uint32_t>(frontier.begin(), frontier.end());
}

BoxReasoningModel::BoxReasoningModel(size_t num_entities,
                                     size_t num_relations)
    : num_entities_(num_entities),
      entity_points_(num_entities, kBoxDim),
      relation_centers_(std::max<size_t>(1, num_relations), kBoxDim),
      relation_offsets_(std::max<size_t>(1, num_relations), kBoxDim),
      rng_(kBoxSeed) {
  const double scale = 1.0 / std::sqrt(static_cast<double>(kBoxDim));
  entity_points_.RandomInit(&rng_, scale);
  relation_centers_.RandomInit(&rng_, scale);
  relation_offsets_.RandomInit(&rng_, scale);
}

void BoxReasoningModel::ComputeBox(const PathQuery& query,
                                   std::vector<float>* center,
                                   std::vector<float>* offset) const {
  constexpr int dim = kBoxDim;
  center->assign(entity_points_.Row(query.anchor),
                 entity_points_.Row(query.anchor) + dim);
  offset->assign(dim, 0.0f);
  for (uint32_t rel : query.relations) {
    const float* rc = relation_centers_.Row(rel);
    const float* ro = relation_offsets_.Row(rel);
    for (int i = 0; i < dim; ++i) {
      (*center)[i] += rc[i];
      (*offset)[i] += static_cast<float>(Softplus(ro[i]));
    }
  }
}

double BoxReasoningModel::ScoreBox(const float* center, const float* offset,
                                   const float* answer) const {
  double outside = 0.0;
  double inside = 0.0;
  for (int i = 0; i < kBoxDim; ++i) {
    const double d = std::abs(static_cast<double>(answer[i]) - center[i]);
    outside += std::max(0.0, d - offset[i]);
    inside += std::min(d, static_cast<double>(offset[i]));
  }
  return -(outside + kInsideWeight * inside);
}

double BoxReasoningModel::Score(const PathQuery& query,
                                uint32_t answer) const {
  std::vector<float> center;
  std::vector<float> offset;
  ComputeBox(query, &center, &offset);
  return ScoreBox(center.data(), offset.data(), entity_points_.Row(answer));
}

double BoxReasoningModel::Step(const PathQuery& query, uint32_t answer,
                               bool positive) {
  constexpr int dim = kBoxDim;
  std::vector<float> center;
  std::vector<float> offset;
  ComputeBox(query, &center, &offset);
  const float* a = entity_points_.Row(answer);
  const double score = ScoreBox(center.data(), offset.data(), a);

  // Logistic loss: positive softplus(-s), negative softplus(s).
  const double loss = positive ? Softplus(-score) : Softplus(score);
  const double dscore = positive ? -Sigmoid(-score) : Sigmoid(score);

  // Subgradients of score w.r.t. answer point, box center, box offset.
  std::vector<float> ganswer(dim, 0.0f);
  std::vector<float> gcenter(dim, 0.0f);
  std::vector<float> goffset(dim, 0.0f);  // w.r.t. realized offsets
  for (int i = 0; i < dim; ++i) {
    const double diff = static_cast<double>(a[i]) - center[i];
    const double d = std::abs(diff);
    const double sign = diff > 0 ? 1.0 : (diff < 0 ? -1.0 : 0.0);
    double dscore_dd;  // d(score)/d(d)
    if (d > offset[i]) {
      dscore_dd = -1.0;                       // outside term active
      goffset[i] = static_cast<float>(
          dscore * (1.0 - kInsideWeight));  // growing box helps
    } else {
      dscore_dd = -kInsideWeight;  // inside term active
      // inside = min(d, o) = d here: no offset gradient.
    }
    ganswer[i] = static_cast<float>(dscore * dscore_dd * sign);
    gcenter[i] = -ganswer[i];
  }

  entity_points_.ApplyGradient(answer, ganswer.data(),
                               kBoxLearningRate);
  // Anchor point receives the center gradient.
  entity_points_.ApplyGradient(query.anchor, gcenter.data(),
                               kBoxLearningRate);
  // Relations: centers share gcenter; offsets via softplus chain rule.
  for (uint32_t rel : query.relations) {
    relation_centers_.ApplyGradient(rel, gcenter.data(),
                                    kBoxLearningRate);
    std::vector<float> grel_offset(dim, 0.0f);
    const float* ro = relation_offsets_.Row(rel);
    for (int i = 0; i < dim; ++i) {
      // d(score)/d(ro) = d(score)/d(offset) * sigmoid(ro).
      // goffset stores dscore/doffset scaled by dscore already; invert
      // the loss-direction convention used in ApplyGradient (descent on
      // loss): goffset is d(loss)/d(offset) because dscore included
      // d(loss)/d(score).
      grel_offset[i] =
          static_cast<float>(goffset[i] * Sigmoid(ro[i]));
    }
    relation_offsets_.ApplyGradient(rel, grel_offset.data(),
                                    kBoxLearningRate);
  }
  return loss;
}

std::vector<double> BoxReasoningModel::Train(
    const std::vector<PathQuerySample>& samples, int epochs) {
  std::vector<double> losses;
  std::vector<size_t> order(samples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng_.Shuffle(&order);
    double epoch_loss = 0.0;
    for (size_t idx : order) {
      const PathQuerySample& s = samples[idx];
      epoch_loss += Step(s.query, s.answer, true);
      for (int k = 0; k < kBoxNegatives; ++k) {
        epoch_loss += Step(
            s.query, static_cast<uint32_t>(rng_.Uniform(num_entities_)),
            false);
      }
    }
    losses.push_back(samples.empty()
                         ? 0.0
                         : epoch_loss / static_cast<double>(samples.size()));
  }
  return losses;
}

double BoxReasoningModel::EvaluateHitsAtK(
    const std::vector<PathQuerySample>& test,
    const graph_engine::GraphView& view, size_t k) const {
  if (test.empty()) return 0.0;
  size_t hits = 0;
  for (const PathQuerySample& s : test) {
    const auto truth = TrueAnswers(view, s.query);
    const std::set<uint32_t> truth_set(truth.begin(), truth.end());
    const double answer_score = Score(s.query, s.answer);
    size_t rank = 1;
    for (uint32_t e = 0; e < num_entities_; ++e) {
      if (e == s.answer || truth_set.count(e)) continue;  // filtered
      if (Score(s.query, e) > answer_score) ++rank;
      if (rank > k) break;
    }
    if (rank <= k) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(test.size());
}

}  // namespace saga::embedding
