#ifndef SAGA_SERVING_RELATED_ENTITIES_H_
#define SAGA_SERVING_RELATED_ENTITIES_H_

#include <memory>
#include <vector>

#include "common/request_context.h"
#include "common/result.h"
#include "graph_engine/ppr.h"
#include "graph_engine/view.h"
#include "kg/knowledge_graph.h"
#include "serving/embedding_service.h"

namespace saga::serving {

/// Related-entities service (§2): "other similar movie directors".
/// Two interchangeable engines — embedding k-NN and personalized
/// PageRank over the graph — plus a blend; the Fig-2 bench compares
/// them against ground truth.
class RelatedEntitiesService {
 public:
  enum class Mode { kEmbedding, kPpr, kBlend };

  struct Options {
    Mode mode = Mode::kEmbedding;
  };

  RelatedEntitiesService(const kg::KnowledgeGraph* kg,
                         const graph_engine::GraphView* view,
                         const EmbeddingService* embeddings);
  RelatedEntitiesService(const kg::KnowledgeGraph* kg,
                         const graph_engine::GraphView* view,
                         const EmbeddingService* embeddings, Options options);

  /// Top-k related entities; a valid `type_filter` restricts hits to
  /// that type. The budget propagates into both engines (embedding k-NN
  /// inherits the ANN breaker/hedging, PPR checks the deadline at
  /// push-loop boundaries). In blend mode the embedding leg runs first;
  /// PPR spends whatever budget remains.
  Result<std::vector<std::pair<kg::EntityId, double>>> Related(
      kg::EntityId id, size_t k, kg::TypeId type_filter,
      const RequestContext& ctx) const;

 private:
  Result<std::vector<std::pair<kg::EntityId, double>>> PprRelated(
      kg::EntityId id, size_t k, kg::TypeId type_filter,
      const RequestContext& ctx) const;

  const kg::KnowledgeGraph* kg_;
  const graph_engine::GraphView* view_;
  const EmbeddingService* embeddings_;
  Options options_;
  std::unique_ptr<graph_engine::PprEngine> ppr_;
};

}  // namespace saga::serving

#endif  // SAGA_SERVING_RELATED_ENTITIES_H_
