#ifndef SAGA_EMBEDDING_TRAINER_H_
#define SAGA_EMBEDDING_TRAINER_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "embedding/embedding_table.h"
#include "embedding/model.h"
#include "embedding/negative_sampler.h"
#include "graph_engine/view.h"

namespace saga::embedding {

/// Adagrad base step of both trainers; 0.3 with 10 negatives per edge
/// is a robust setting for the synthetic workloads.
inline constexpr double kLearningRate = 0.3;
/// Corrupted edges each positive edge trains against (filtered: a
/// corruption that is a true edge is resampled).
inline constexpr int kNumNegatives = 10;

struct TrainingConfig {
  ModelKind model = ModelKind::kDistMult;
  int dim = 32;
  int epochs = 10;
  uint64_t seed = 7;
  /// Fraction of edges held out for evaluation (never trained on).
  double holdout_fraction = 0.0;
};

/// Result of a training run: embedding tables in the view's local id
/// space, plus the held-out edges for evaluation.
struct TrainedEmbeddings {
  ModelKind model = ModelKind::kDistMult;
  int dim = 0;
  EmbeddingTable entities;
  EmbeddingTable relations;
  std::vector<graph_engine::ViewEdge> train_edges;
  std::vector<graph_engine::ViewEdge> holdout_edges;
  std::vector<double> epoch_losses;

  double Score(uint32_t src, uint32_t relation, uint32_t dst) const {
    return MakeModel(model)->Score(entities.Row(src), relations.Row(relation),
                                   entities.Row(dst), dim);
  }
};

/// Single-node in-memory trainer: logistic loss with uniform negative
/// sampling, Adagrad updates. This is the "sufficient main memory"
/// configuration that the disk-based trainer is benchmarked against.
class InMemoryTrainer {
 public:
  explicit InMemoryTrainer(TrainingConfig config);

  /// Trains over all edges of the view.
  TrainedEmbeddings Train(const graph_engine::GraphView& view) const;

  /// Trains on an explicit edge list in the view's id space (used for
  /// related-entity embeddings over random-walk co-occurrence pairs).
  TrainedEmbeddings TrainEdges(
      const graph_engine::GraphView& view,
      const std::vector<graph_engine::ViewEdge>& edges) const;

  /// Warm-start retraining for the continuously growing KG: rows for
  /// entities/relations already present in `previous` are initialized
  /// from it (new local ids get fresh random rows), then training
  /// proceeds as usual. Refreshing embeddings after a view delta this
  /// way converges much faster than training from scratch.
  TrainedEmbeddings Retrain(const graph_engine::GraphView& view,
                            const TrainedEmbeddings& previous) const;

 private:
  TrainedEmbeddings TrainEdgesFrom(
      const graph_engine::GraphView& view,
      const std::vector<graph_engine::ViewEdge>& edges,
      const TrainedEmbeddings* warm_start) const;

  TrainingConfig config_;
};

/// Numerically stable log(1 + exp(x)).
double Softplus(double x);
/// d/dx softplus(x) = sigmoid(x).
double Sigmoid(double x);

/// Storage abstraction for entity rows so the same SGD kernel runs over
/// a fully resident table (in-memory trainer) or a partition buffer
/// (disk trainer).
class EntityStore {
 public:
  virtual ~EntityStore() = default;
  virtual const float* Row(uint32_t id) const = 0;
  virtual void ApplyGradient(uint32_t id, const float* grad, double lr) = 0;
  virtual void NormalizeRow(uint32_t id) = 0;
};

/// EntityStore over one EmbeddingTable.
class TableEntityStore : public EntityStore {
 public:
  explicit TableEntityStore(EmbeddingTable* table) : table_(table) {}
  const float* Row(uint32_t id) const override { return table_->Row(id); }
  void ApplyGradient(uint32_t id, const float* grad, double lr) override {
    table_->ApplyGradient(id, grad, lr);
  }
  void NormalizeRow(uint32_t id) override { table_->NormalizeRow(id); }

 private:
  EmbeddingTable* table_;
};

/// One SGD step on a positive edge + its sampled negatives; returns the
/// step loss. Shared by the in-memory and disk trainers so both train
/// identically modulo negative pools.
double TrainStep(const KgeModel& model, const TrainingConfig& config,
                 EntityStore* entities, EmbeddingTable* relations,
                 const graph_engine::ViewEdge& pos,
                 const std::vector<graph_engine::ViewEdge>& negatives);

}  // namespace saga::embedding

#endif  // SAGA_EMBEDDING_TRAINER_H_
