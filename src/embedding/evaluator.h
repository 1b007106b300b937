#ifndef SAGA_EMBEDDING_EVALUATOR_H_
#define SAGA_EMBEDDING_EVALUATOR_H_

#include <vector>

#include "common/rng.h"
#include "embedding/trainer.h"
#include "graph_engine/view.h"

namespace saga::embedding {

/// Fact-verification quality: AUC of score separating true test edges
/// from uniformly corrupted ones (one corruption per positive).
double EvaluateVerificationAuc(
    const TrainedEmbeddings& emb, const graph_engine::GraphView& view,
    const std::vector<graph_engine::ViewEdge>& test, Rng* rng);

/// Area under the ROC curve for (score, label) pairs.
double Auc(const std::vector<std::pair<double, bool>>& scored);

}  // namespace saga::embedding

#endif  // SAGA_EMBEDDING_EVALUATOR_H_
