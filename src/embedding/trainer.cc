#include "embedding/trainer.h"

#include <cmath>

#include "common/metrics.h"

namespace saga::embedding {

double Softplus(double x) {
  if (x > 30.0) return x;
  if (x < -30.0) return 0.0;
  return std::log1p(std::exp(x));
}

double Sigmoid(double x) {
  if (x >= 0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

double TrainStep(const KgeModel& model, const TrainingConfig& config,
                 EntityStore* entities, EmbeddingTable* relations,
                 const graph_engine::ViewEdge& pos,
                 const std::vector<graph_engine::ViewEdge>& negatives) {
  const int dim = config.dim;
  std::vector<float> gh(dim, 0.0f);
  std::vector<float> gr(dim, 0.0f);
  std::vector<float> gt(dim, 0.0f);

  // Positive: loss = softplus(-s) ; dloss/ds = -sigmoid(-s).
  const float* h = entities->Row(pos.src);
  const float* r = relations->Row(pos.relation);
  const float* t = entities->Row(pos.dst);
  const double s_pos = model.Score(h, r, t, dim);
  double loss = Softplus(-s_pos);
  model.AccumulateGrad(h, r, t, dim, -Sigmoid(-s_pos), gh.data(), gr.data(),
                       gt.data());
  entities->ApplyGradient(pos.src, gh.data(), kLearningRate);
  relations->ApplyGradient(pos.relation, gr.data(), kLearningRate);
  entities->ApplyGradient(pos.dst, gt.data(), kLearningRate);

  // Negatives: loss = softplus(s) ; dloss/ds = sigmoid(s).
  for (const auto& neg : negatives) {
    std::fill(gh.begin(), gh.end(), 0.0f);
    std::fill(gr.begin(), gr.end(), 0.0f);
    std::fill(gt.begin(), gt.end(), 0.0f);
    const float* nh = entities->Row(neg.src);
    const float* nr = relations->Row(neg.relation);
    const float* nt = entities->Row(neg.dst);
    const double s_neg = model.Score(nh, nr, nt, dim);
    loss += Softplus(s_neg);
    model.AccumulateGrad(nh, nr, nt, dim, Sigmoid(s_neg), gh.data(),
                         gr.data(), gt.data());
    entities->ApplyGradient(neg.src, gh.data(), kLearningRate);
    relations->ApplyGradient(neg.relation, gr.data(), kLearningRate);
    entities->ApplyGradient(neg.dst, gt.data(), kLearningRate);
  }

  if (model.wants_entity_renorm()) {
    entities->NormalizeRow(pos.src);
    entities->NormalizeRow(pos.dst);
  }
  return loss;
}

InMemoryTrainer::InMemoryTrainer(TrainingConfig config) : config_(config) {}

TrainedEmbeddings InMemoryTrainer::Train(
    const graph_engine::GraphView& view) const {
  return TrainEdges(view, view.edges());
}

TrainedEmbeddings InMemoryTrainer::TrainEdges(
    const graph_engine::GraphView& view,
    const std::vector<graph_engine::ViewEdge>& edges) const {
  return TrainEdgesFrom(view, edges, nullptr);
}

TrainedEmbeddings InMemoryTrainer::Retrain(
    const graph_engine::GraphView& view,
    const TrainedEmbeddings& previous) const {
  return TrainEdgesFrom(view, view.edges(), &previous);
}

TrainedEmbeddings InMemoryTrainer::TrainEdgesFrom(
    const graph_engine::GraphView& view,
    const std::vector<graph_engine::ViewEdge>& edges,
    const TrainedEmbeddings* warm_start) const {
  Rng rng(config_.seed);
  TrainedEmbeddings out;
  out.model = config_.model;
  out.dim = config_.dim;
  out.entities = EmbeddingTable(view.num_entities(), config_.dim);
  out.relations = EmbeddingTable(std::max<size_t>(1, view.num_relations()),
                                 config_.dim);
  const double scale = 1.0 / std::sqrt(static_cast<double>(config_.dim));
  out.entities.RandomInit(&rng, scale);
  out.relations.RandomInit(&rng, scale);
  if (warm_start != nullptr && warm_start->dim == config_.dim) {
    // Local ids are append-only across ApplyDelta, so row i of the
    // previous tables is still entity/relation i.
    const size_t entity_rows =
        std::min(warm_start->entities.rows(), out.entities.rows());
    for (size_t r = 0; r < entity_rows; ++r) {
      std::copy(warm_start->entities.Row(r),
                warm_start->entities.Row(r) + config_.dim,
                out.entities.Row(r));
    }
    const size_t relation_rows =
        std::min(warm_start->relations.rows(), out.relations.rows());
    for (size_t r = 0; r < relation_rows; ++r) {
      std::copy(warm_start->relations.Row(r),
                warm_start->relations.Row(r) + config_.dim,
                out.relations.Row(r));
    }
  }

  // Holdout split.
  std::vector<graph_engine::ViewEdge> train = edges;
  rng.Shuffle(&train);
  const size_t holdout =
      static_cast<size_t>(config_.holdout_fraction *
                          static_cast<double>(train.size()));
  out.holdout_edges.assign(train.end() - holdout, train.end());
  train.resize(train.size() - holdout);
  out.train_edges = train;

  const std::unique_ptr<KgeModel> model = MakeModel(config_.model);
  NegativeSampler sampler(view);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    auto epoch_stage = SAGA_STAGE("embedding.trainer.epoch");
    rng.Shuffle(&train);
    double epoch_loss = 0.0;
    bool corrupt_tail = true;
    std::vector<graph_engine::ViewEdge> negatives(kNumNegatives);
    TableEntityStore store(&out.entities);
    for (const auto& pos : train) {
      for (int k = 0; k < kNumNegatives; ++k) {
        negatives[k] = sampler.Corrupt(pos, corrupt_tail, &rng);
        corrupt_tail = !corrupt_tail;
      }
      epoch_loss +=
          TrainStep(*model, config_, &store, &out.relations, pos, negatives);
    }
    out.epoch_losses.push_back(
        train.empty() ? 0.0 : epoch_loss / static_cast<double>(train.size()));
  }
  return out;
}

}  // namespace saga::embedding
