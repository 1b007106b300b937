#include "embedding/negative_sampler.h"

namespace saga::embedding {

NegativeSampler::NegativeSampler(const graph_engine::GraphView& view)
    : num_entities_(view.num_entities()) {
  true_edges_.reserve(view.edges().size() * 2);
  for (const auto& e : view.edges()) {
    true_edges_.insert(Key(e.src, e.relation, e.dst));
  }
}

graph_engine::ViewEdge NegativeSampler::Corrupt(
    const graph_engine::ViewEdge& edge, bool corrupt_tail, Rng* rng) const {
  graph_engine::ViewEdge neg = edge;
  for (int attempt = 0; attempt < 16; ++attempt) {
    const uint32_t candidate =
        static_cast<uint32_t>(rng->Uniform(num_entities_));
    if (corrupt_tail) {
      neg.dst = candidate;
    } else {
      neg.src = candidate;
    }
    if (!IsTrueEdge(neg.src, neg.relation, neg.dst)) break;
  }
  return neg;
}

graph_engine::ViewEdge NegativeSampler::CorruptFromPool(
    const graph_engine::ViewEdge& edge, bool corrupt_tail,
    const std::vector<uint32_t>& pool, Rng* rng) const {
  graph_engine::ViewEdge neg = edge;
  if (pool.empty()) return neg;
  for (int attempt = 0; attempt < 16; ++attempt) {
    const uint32_t candidate = pool[rng->Uniform(pool.size())];
    if (corrupt_tail) {
      neg.dst = candidate;
    } else {
      neg.src = candidate;
    }
    if (!IsTrueEdge(neg.src, neg.relation, neg.dst)) break;
  }
  return neg;
}

}  // namespace saga::embedding
