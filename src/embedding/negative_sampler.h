#ifndef SAGA_EMBEDDING_NEGATIVE_SAMPLER_H_
#define SAGA_EMBEDDING_NEGATIVE_SAMPLER_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "graph_engine/view.h"

namespace saga::embedding {

/// Uniform corruption sampler for contrastive training: replaces the
/// head or tail of a positive edge with a random entity. Corruptions
/// that happen to be true edges are rejected (resampled) so the model
/// is not penalized for scoring real facts high.
class NegativeSampler {
 public:
  explicit NegativeSampler(const graph_engine::GraphView& view);

  /// Produces a corrupted copy of `edge`. `corrupt_tail` alternates at
  /// the call site.
  graph_engine::ViewEdge Corrupt(const graph_engine::ViewEdge& edge,
                                 bool corrupt_tail, Rng* rng) const;

  /// Corruption restricted to a candidate pool (the disk trainer can
  /// only draw negatives from resident partitions).
  graph_engine::ViewEdge CorruptFromPool(
      const graph_engine::ViewEdge& edge, bool corrupt_tail,
      const std::vector<uint32_t>& pool, Rng* rng) const;

  bool IsTrueEdge(uint32_t src, uint32_t relation, uint32_t dst) const {
    return true_edges_.count(Key(src, relation, dst)) > 0;
  }

 private:
  static uint64_t Key(uint32_t s, uint32_t r, uint32_t t) {
    return HashCombine(HashCombine(s, r), t);
  }

  size_t num_entities_;
  std::unordered_set<uint64_t> true_edges_;
};

}  // namespace saga::embedding

#endif  // SAGA_EMBEDDING_NEGATIVE_SAMPLER_H_
