#ifndef SAGA_GRAPH_ENGINE_SAMPLER_H_
#define SAGA_GRAPH_ENGINE_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph_engine/view.h"

namespace saga::graph_engine {

/// Pre-computed graph traversals for specialized related-entity
/// embeddings (§2: "for specialized related entity embeddings we use
/// the scalable graph processing capabilities of our graph engine to
/// pre-compute graph traversals").
class RandomWalkSampler {
 public:
  struct Options {
    int walks_per_node = 4;
    int walk_length = 8;
  };
  /// Skip-gram co-occurrence window when pairing walk nodes.
  static constexpr size_t kWindow = 3;

  explicit RandomWalkSampler(Options options);

  /// Uniform random walks over the view's undirected adjacency; one
  /// vector per walk, entries are local entity ids. Isolated nodes
  /// yield length-1 walks.
  std::vector<std::vector<uint32_t>> GenerateWalks(const GraphView& view,
                                                   Rng* rng) const;

  /// Skip-gram style (center, context) pairs from walks. These are the
  /// positive pairs for relatedness embedding training.
  std::vector<std::pair<uint32_t, uint32_t>> CoOccurrencePairs(
      const std::vector<std::vector<uint32_t>>& walks) const;

 private:
  Options options_;
};

}  // namespace saga::graph_engine

#endif  // SAGA_GRAPH_ENGINE_SAMPLER_H_
