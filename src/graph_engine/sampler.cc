#include "graph_engine/sampler.h"

namespace saga::graph_engine {

RandomWalkSampler::RandomWalkSampler() : RandomWalkSampler(Options()) {}

RandomWalkSampler::RandomWalkSampler(Options options) : options_(options) {}

std::vector<std::vector<uint32_t>> RandomWalkSampler::GenerateWalks(
    const GraphView& view, Rng* rng) const {
  std::vector<std::vector<uint32_t>> walks;
  walks.reserve(view.num_entities() *
                static_cast<size_t>(options_.walks_per_node));
  for (uint32_t start = 0; start < view.num_entities(); ++start) {
    for (int w = 0; w < options_.walks_per_node; ++w) {
      std::vector<uint32_t> walk{start};
      uint32_t cur = start;
      for (int step = 1; step < options_.walk_length; ++step) {
        const std::span<const uint32_t> nbrs = view.Neighbors(cur);
        if (nbrs.empty()) break;
        cur = nbrs[rng->Uniform(nbrs.size())];
        walk.push_back(cur);
      }
      walks.push_back(std::move(walk));
    }
  }
  return walks;
}

std::vector<std::pair<uint32_t, uint32_t>>
RandomWalkSampler::CoOccurrencePairs(
    const std::vector<std::vector<uint32_t>>& walks) const {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (const auto& walk : walks) {
    for (size_t i = 0; i < walk.size(); ++i) {
      const size_t hi =
          std::min(walk.size(), i + 1 + static_cast<size_t>(options_.window));
      for (size_t j = i + 1; j < hi; ++j) {
        if (walk[i] != walk[j]) pairs.emplace_back(walk[i], walk[j]);
      }
    }
  }
  return pairs;
}

}  // namespace saga::graph_engine
