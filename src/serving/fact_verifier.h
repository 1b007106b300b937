#ifndef SAGA_SERVING_FACT_VERIFIER_H_
#define SAGA_SERVING_FACT_VERIFIER_H_

#include <vector>

#include "embedding/trainer.h"
#include "graph_engine/view.h"
#include "kg/knowledge_graph.h"

namespace saga::serving {

/// Embedding-based fact verification (§2: "reason about the correctness
/// ... of these facts at scale"). Scores a candidate entity-edge with
/// the trained model; a threshold calibrated on labeled pairs converts
/// scores to accept/reject decisions.
class FactVerifier {
 public:
  struct Verdict {
    double score = 0.0;
    bool plausible = false;
    /// False when the triple could not be scored (entity/relation not
    /// in the training view); `plausible` is then meaningless.
    bool scorable = false;
  };

  FactVerifier(const graph_engine::GraphView* view,
               const embedding::TrainedEmbeddings* emb);

  /// Chooses the accuracy-maximizing threshold on labeled local-id
  /// edges (true positives + known-false negatives).
  void Calibrate(const std::vector<graph_engine::ViewEdge>& positives,
                 const std::vector<graph_engine::ViewEdge>& negatives);

  Verdict Verify(kg::EntityId s, kg::PredicateId p, kg::EntityId o) const;
  double ScoreLocal(const graph_engine::ViewEdge& e) const {
    return emb_->Score(e.src, e.relation, e.dst);
  }

 private:
  const graph_engine::GraphView* view_;
  const embedding::TrainedEmbeddings* emb_;
  double threshold_ = 0.0;
};

}  // namespace saga::serving

#endif  // SAGA_SERVING_FACT_VERIFIER_H_
