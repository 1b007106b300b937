#ifndef SAGA_EMBEDDING_REASONING_H_
#define SAGA_EMBEDDING_REASONING_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "embedding/embedding_table.h"
#include "graph_engine/view.h"

namespace saga::embedding {

/// A multi-hop path query in a view's local id space: start at `anchor`
/// and follow `relations` in order ("the cities of the teams of X's
/// spouse"). The reasoning-based counterpart of single-edge queries
/// (§2: "reasoning-based embedding models are used for more complex
/// tasks that involve multi-hop reasoning").
struct PathQuery {
  uint32_t anchor = 0;
  std::vector<uint32_t> relations;
};

struct PathQuerySample {
  PathQuery query;
  uint32_t answer = 0;
};

/// Samples path queries by walking the view's directed edges: each
/// sample's answer is genuinely reachable via its relation sequence.
/// Hop counts are uniform in [1, max_hops].
std::vector<PathQuerySample> SamplePathQueries(
    const graph_engine::GraphView& view, size_t num_samples, int max_hops,
    Rng* rng);

/// All true answers of a path query (the FollowPath ground truth in
/// local id space); used for filtered evaluation.
std::vector<uint32_t> TrueAnswers(const graph_engine::GraphView& view,
                                  const PathQuery& query);

/// Query2Box-style reasoning embeddings: entities are points; each
/// relation translates the query box's center and grows its offsets;
/// plausible answers fall inside the final box. Score =
/// -(dist_outside + inside_weight * dist_inside), L1 geometry, where
/// inside_weight (alpha in Query2Box) pulls answers toward box centers
/// without collapsing the box.
class BoxReasoningModel {
 public:
  BoxReasoningModel(size_t num_entities, size_t num_relations);

  /// Trains `epochs` passes with uniform negative answers + logistic
  /// loss (Adagrad). Returns mean loss per epoch.
  std::vector<double> Train(const std::vector<PathQuerySample>& samples,
                            int epochs);

  double Score(const PathQuery& query, uint32_t answer) const;

  /// Filtered Hits@k over test samples: rank the true answer among all
  /// entities, filtering other true answers via `view`.
  double EvaluateHitsAtK(const std::vector<PathQuerySample>& test,
                         const graph_engine::GraphView& view,
                         size_t k) const;

 private:
  /// Materializes the query box (center, offset >= 0), both length dim.
  void ComputeBox(const PathQuery& query, std::vector<float>* center,
                  std::vector<float>* offset) const;

  double ScoreBox(const float* center, const float* offset,
                  const float* answer) const;

  /// One SGD step on (query, answer, label); returns the loss.
  double Step(const PathQuery& query, uint32_t answer, bool positive);

  size_t num_entities_;
  EmbeddingTable entity_points_;
  EmbeddingTable relation_centers_;
  /// Pre-activation box growth per relation; softplus() keeps the
  /// realized offsets positive.
  EmbeddingTable relation_offsets_;
  Rng rng_;
};

}  // namespace saga::embedding

#endif  // SAGA_EMBEDDING_REASONING_H_
