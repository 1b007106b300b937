#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>

#include "common/file_util.h"
#include "common/rng.h"
#include "common/serialization.h"
#include "embedding/embedding_store.h"
#include "embedding/embedding_table.h"
#include "embedding/evaluator.h"
#include "embedding/model.h"
#include "embedding/negative_sampler.h"
#include "embedding/trainer.h"
#include "embedding_rows.h"
#include "kg/kg_generator.h"

namespace saga::embedding {
namespace {

using test_shard::Payload;
using test_shard::Row;
using test_shard::Sealed;

std::vector<float> RowOf(const EmbeddingTable& table, size_t r, int dim) {
  return std::vector<float>(table.Row(r), table.Row(r) + dim);
}

kg::GeneratedKg MakeKg() {
  kg::KgGeneratorConfig config;
  config.num_persons = 120;
  config.num_movies = 40;
  config.num_songs = 20;
  config.num_teams = 6;
  config.num_bands = 8;
  config.num_cities = 12;
  return kg::GenerateKg(config);
}

// ---------- Models ----------

TEST(ModelTest, TransEPerfectTranslationScoresHighest) {
  auto model = MakeModel(ModelKind::kTransE);
  const std::vector<float> h = {0.1f, 0.2f, 0.3f, 0.0f};
  const std::vector<float> r = {0.05f, -0.1f, 0.2f, 0.1f};
  std::vector<float> t(4);
  for (int i = 0; i < 4; ++i) t[i] = h[i] + r[i];
  const double perfect = model->Score(h.data(), r.data(), t.data(), 4);
  EXPECT_NEAR(perfect, 0.0, 1e-3);
  std::vector<float> wrong = t;
  wrong[0] += 1.0f;
  EXPECT_LT(model->Score(h.data(), r.data(), wrong.data(), 4), perfect);
}

TEST(ModelTest, DistMultIsSymmetricInHeadTail) {
  auto model = MakeModel(ModelKind::kDistMult);
  const std::vector<float> h = {0.3f, -0.2f, 0.5f, 0.1f};
  const std::vector<float> r = {0.2f, 0.4f, -0.3f, 0.6f};
  const std::vector<float> t = {-0.1f, 0.7f, 0.2f, 0.3f};
  EXPECT_NEAR(model->Score(h.data(), r.data(), t.data(), 4),
              model->Score(t.data(), r.data(), h.data(), 4), 1e-9);
}

TEST(ModelTest, ComplExIsAsymmetric) {
  auto model = MakeModel(ModelKind::kComplEx);
  const std::vector<float> h = {0.3f, -0.2f, 0.5f, 0.1f};
  const std::vector<float> r = {0.2f, 0.4f, -0.3f, 0.6f};
  const std::vector<float> t = {-0.1f, 0.7f, 0.2f, 0.3f};
  const double forward = model->Score(h.data(), r.data(), t.data(), 4);
  const double backward = model->Score(t.data(), r.data(), h.data(), 4);
  EXPECT_GT(std::abs(forward - backward), 1e-6);
}

/// Property test: analytic gradients match finite differences for all
/// three models and every argument position.
class GradientCheck : public ::testing::TestWithParam<ModelKind> {};

TEST_P(GradientCheck, MatchesFiniteDifferences) {
  const int dim = 8;
  auto model = MakeModel(GetParam());
  Rng rng(42);
  std::vector<float> h(dim);
  std::vector<float> r(dim);
  std::vector<float> t(dim);
  for (int i = 0; i < dim; ++i) {
    h[i] = static_cast<float>(rng.UniformDouble(-0.5, 0.5));
    r[i] = static_cast<float>(rng.UniformDouble(-0.5, 0.5));
    t[i] = static_cast<float>(rng.UniformDouble(-0.5, 0.5));
  }
  std::vector<float> gh(dim, 0.0f);
  std::vector<float> gr(dim, 0.0f);
  std::vector<float> gt(dim, 0.0f);
  model->AccumulateGrad(h.data(), r.data(), t.data(), dim, 1.0, gh.data(),
                        gr.data(), gt.data());

  const double eps = 1e-3;
  auto check = [&](std::vector<float>* vec, const std::vector<float>& grad) {
    for (int i = 0; i < dim; ++i) {
      const float orig = (*vec)[i];
      (*vec)[i] = orig + static_cast<float>(eps);
      const double plus = model->Score(h.data(), r.data(), t.data(), dim);
      (*vec)[i] = orig - static_cast<float>(eps);
      const double minus = model->Score(h.data(), r.data(), t.data(), dim);
      (*vec)[i] = orig;
      const double numeric = (plus - minus) / (2 * eps);
      EXPECT_NEAR(grad[i], numeric, 5e-2)
          << ModelKindName(GetParam()) << " dim " << i;
    }
  };
  check(&h, gh);
  check(&r, gr);
  check(&t, gt);
}

INSTANTIATE_TEST_SUITE_P(AllModels, GradientCheck,
                         ::testing::Values(ModelKind::kTransE,
                                           ModelKind::kDistMult,
                                           ModelKind::kComplEx));

// ---------- EmbeddingTable ----------

TEST(EmbeddingTableTest, InitAndGradient) {
  EmbeddingTable table(10, 4);
  Rng rng(1);
  table.RandomInit(&rng, 0.5);
  bool any_nonzero = false;
  for (size_t r = 0; r < 10; ++r) {
    for (int d = 0; d < 4; ++d) {
      EXPECT_LE(std::abs(table.Row(r)[d]), 0.5f);
      if (table.Row(r)[d] != 0.0f) any_nonzero = true;
    }
  }
  EXPECT_TRUE(any_nonzero);

  const std::vector<float> before = RowOf(table, 3, 4);
  const std::vector<float> grad = {1.0f, -1.0f, 0.0f, 2.0f};
  table.ApplyGradient(3, grad.data(), 0.1);
  const std::vector<float> after = RowOf(table, 3, 4);
  EXPECT_LT(after[0], before[0]);  // positive gradient decreases value
  EXPECT_GT(after[1], before[1]);
  EXPECT_EQ(after[2], before[2]);
  EXPECT_LT(after[3], before[3]);
}

TEST(EmbeddingTableTest, AdagradShrinksEffectiveStep) {
  EmbeddingTable table(1, 1);
  const float g = 1.0f;
  table.ApplyGradient(0, &g, 0.1);
  const float step1 = -table.Row(0)[0];
  const float before2 = table.Row(0)[0];
  table.ApplyGradient(0, &g, 0.1);
  const float step2 = before2 - table.Row(0)[0];
  EXPECT_GT(step1, step2);
}

TEST(EmbeddingTableTest, NormalizeRowCapsNorm) {
  EmbeddingTable table(1, 3);
  float* row = table.Row(0);
  row[0] = 3.0f;
  row[1] = 4.0f;
  row[2] = 0.0f;
  table.NormalizeRow(0);
  EXPECT_NEAR(std::sqrt(row[0] * row[0] + row[1] * row[1]), 1.0, 1e-5);
  // Short vectors are left alone.
  row[0] = 0.1f;
  row[1] = 0.1f;
  table.NormalizeRow(0);
  EXPECT_NEAR(row[0], 0.1f, 1e-6);
}

TEST(EmbeddingTableTest, PartitionRowsRoundTripIncludesOptimizerState) {
  auto dir = MakeTempDir("saga_emb_rows");
  ASSERT_TRUE(dir.ok());
  EmbeddingTable table(10, 4);
  Rng rng(3);
  table.RandomInit(&rng, 0.3);
  const std::vector<float> grad = {1.0f, 1.0f, 1.0f, 1.0f};
  table.ApplyGradient(2, grad.data(), 0.1);
  const std::string path = JoinPath(*dir, "rows.bin");
  ASSERT_TRUE(table.SaveRows(path).ok());

  EmbeddingTable restored(10, 4);
  ASSERT_TRUE(restored.LoadRows(path).ok());
  EXPECT_EQ(RowOf(restored, 2, 4), RowOf(table, 2, 4));
  // Adagrad state restored: identical next-step behaviour.
  table.ApplyGradient(2, grad.data(), 0.1);
  restored.ApplyGradient(2, grad.data(), 0.1);
  EXPECT_EQ(RowOf(restored, 2, 4), RowOf(table, 2, 4));
  EmbeddingTable taller(11, 4);
  EXPECT_TRUE(taller.LoadRows(path).IsCorruption());
  (void)RemoveDirRecursively(*dir);
}

// ---------- NegativeSampler ----------

TEST(NegativeSamplerTest, CorruptsRequestedSlot) {
  kg::GeneratedKg gen = MakeKg();
  auto view = graph_engine::GraphView::Build(gen.kg,
                                             graph_engine::ViewDefinition());
  NegativeSampler sampler(view);
  Rng rng(7);
  const graph_engine::ViewEdge pos = view.edges()[0];
  for (int i = 0; i < 20; ++i) {
    const auto tail_neg = sampler.Corrupt(pos, true, &rng);
    EXPECT_EQ(tail_neg.src, pos.src);
    EXPECT_EQ(tail_neg.relation, pos.relation);
    const auto head_neg = sampler.Corrupt(pos, false, &rng);
    EXPECT_EQ(head_neg.dst, pos.dst);
  }
}

TEST(NegativeSamplerTest, FilteredRejectsTrueEdges) {
  kg::GeneratedKg gen = MakeKg();
  auto view = graph_engine::GraphView::Build(gen.kg,
                                             graph_engine::ViewDefinition());
  NegativeSampler sampler(view);
  Rng rng(7);
  int true_hits = 0;
  for (const auto& pos : view.edges()) {
    const auto neg = sampler.Corrupt(pos, true, &rng);
    if (sampler.IsTrueEdge(neg.src, neg.relation, neg.dst)) ++true_hits;
  }
  // Rejection sampling makes true-edge negatives very rare.
  EXPECT_LT(true_hits, static_cast<int>(view.edges().size() / 50 + 2));
}

TEST(NegativeSamplerTest, PoolCorruptionStaysInPool) {
  kg::GeneratedKg gen = MakeKg();
  auto view = graph_engine::GraphView::Build(gen.kg,
                                             graph_engine::ViewDefinition());
  NegativeSampler sampler(view);
  Rng rng(9);
  const std::vector<uint32_t> pool = {1, 2, 3};
  const graph_engine::ViewEdge pos = view.edges()[0];
  for (int i = 0; i < 20; ++i) {
    const auto neg = sampler.CorruptFromPool(pos, true, pool, &rng);
    EXPECT_TRUE(neg.dst == 1 || neg.dst == 2 || neg.dst == 3);
  }
}

// ---------- Training ----------

TEST(TrainerTest, LossDecreasesOverEpochs) {
  kg::GeneratedKg gen = MakeKg();
  auto view = graph_engine::GraphView::Build(gen.kg,
                                             graph_engine::ViewDefinition());
  TrainingConfig config;
  config.model = ModelKind::kDistMult;
  config.dim = 16;
  config.epochs = 5;
  InMemoryTrainer trainer(config);
  const TrainedEmbeddings emb = trainer.Train(view);
  ASSERT_EQ(emb.epoch_losses.size(), 5u);
  EXPECT_LT(emb.epoch_losses.back(), emb.epoch_losses.front());
}

TEST(TrainerTest, TrainedModelSeparatesTrueFromCorrupted) {
  kg::GeneratedKg gen = MakeKg();
  auto view = graph_engine::GraphView::Build(gen.kg,
                                             graph_engine::ViewDefinition());
  TrainingConfig config;
  config.model = ModelKind::kDistMult;
  config.dim = 24;
  config.epochs = 8;
  config.holdout_fraction = 0.1;
  InMemoryTrainer trainer(config);
  const TrainedEmbeddings emb = trainer.Train(view);
  ASSERT_FALSE(emb.holdout_edges.empty());
  Rng rng(5);
  const double auc =
      EvaluateVerificationAuc(emb, view, emb.holdout_edges, &rng);
  EXPECT_GT(auc, 0.75) << "held-out AUC too low";
}

TEST(TrainerTest, HoldoutIsDisjointFromTraining) {
  kg::GeneratedKg gen = MakeKg();
  auto view = graph_engine::GraphView::Build(gen.kg,
                                             graph_engine::ViewDefinition());
  TrainingConfig config;
  config.epochs = 1;
  config.holdout_fraction = 0.2;
  InMemoryTrainer trainer(config);
  const TrainedEmbeddings emb = trainer.Train(view);
  EXPECT_EQ(emb.train_edges.size() + emb.holdout_edges.size(),
            view.edges().size());
  EXPECT_NEAR(static_cast<double>(emb.holdout_edges.size()),
              0.2 * static_cast<double>(view.edges().size()), 2.0);
}

TEST(TrainerTest, RetrainWarmStartsFromPreviousEmbeddings) {
  kg::GeneratedKg gen = MakeKg();
  auto view = graph_engine::GraphView::Build(gen.kg,
                                             graph_engine::ViewDefinition());
  TrainingConfig config;
  config.dim = 16;
  config.epochs = 4;
  InMemoryTrainer trainer(config);
  const TrainedEmbeddings first = trainer.Train(view);

  // The KG grows; the view is maintained incrementally.
  const kg::SourceId src = gen.kg.AddSource("delta", 1.0);
  const kg::EntityId fresh =
      gen.kg.catalog().AddEntity("Fresh Face", {gen.schema.person});
  std::vector<kg::TripleIdx> delta;
  delta.push_back(gen.kg.AddFact(fresh, gen.schema.spouse,
                                 kg::Value::Entity(view.global_entity(0)),
                                 src));
  view.ApplyDelta(gen.kg, delta);

  // Zero-epoch retrain: old rows must be preserved verbatim, the new
  // entity gets a (random, nonzero) row.
  TrainingConfig frozen = config;
  frozen.epochs = 0;
  const TrainedEmbeddings warm =
      InMemoryTrainer(frozen).Retrain(view, first);
  ASSERT_EQ(warm.entities.rows(), first.entities.rows() + 1);
  for (size_t r = 0; r < first.entities.rows(); ++r) {
    EXPECT_EQ(RowOf(warm.entities, r, config.dim),
              RowOf(first.entities, r, config.dim));
  }
  bool new_row_nonzero = false;
  for (int d = 0; d < 16; ++d) {
    if (warm.entities.Row(first.entities.rows())[d] != 0.0f) {
      new_row_nonzero = true;
    }
  }
  EXPECT_TRUE(new_row_nonzero);

  // One warm epoch starts from a much lower loss than one cold epoch.
  TrainingConfig one_epoch = config;
  one_epoch.epochs = 1;
  const TrainedEmbeddings warm_trained =
      InMemoryTrainer(one_epoch).Retrain(view, first);
  const TrainedEmbeddings cold_trained =
      InMemoryTrainer(one_epoch).Train(view);
  ASSERT_EQ(warm_trained.epoch_losses.size(), 1u);
  EXPECT_LT(warm_trained.epoch_losses[0],
            0.6 * cold_trained.epoch_losses[0]);
}

class ModelQualityTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(ModelQualityTest, BeatsRandomVerification) {
  kg::GeneratedKg gen = MakeKg();
  auto view = graph_engine::GraphView::Build(gen.kg,
                                             graph_engine::ViewDefinition());
  TrainingConfig config;
  config.model = GetParam();
  config.dim = 24;
  config.epochs = 6;
  config.holdout_fraction = 0.1;
  InMemoryTrainer trainer(config);
  const TrainedEmbeddings emb = trainer.Train(view);
  Rng rng(11);
  // Held-out edges against filtered corruptions: random AUC is 0.5.
  const double auc =
      EvaluateVerificationAuc(emb, view, emb.holdout_edges, &rng);
  std::printf("%s held-out AUC %.3f\n",
              std::string(ModelKindName(GetParam())).c_str(), auc);
  EXPECT_GT(auc, 0.65) << ModelKindName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelQualityTest,
                         ::testing::Values(ModelKind::kTransE,
                                           ModelKind::kDistMult,
                                           ModelKind::kComplEx));

// ---------- Evaluator ----------

TEST(EvaluatorTest, AucOnSeparableData) {
  std::vector<std::pair<double, bool>> scored;
  for (int i = 0; i < 100; ++i) {
    scored.emplace_back(1.0 + i, true);
    scored.emplace_back(-1.0 - i, false);
  }
  EXPECT_DOUBLE_EQ(Auc(scored), 1.0);
}

TEST(EvaluatorTest, AucOnRandomDataIsHalf) {
  Rng rng(3);
  std::vector<std::pair<double, bool>> scored;
  for (int i = 0; i < 4000; ++i) {
    scored.emplace_back(rng.NextDouble(), rng.Bernoulli(0.5));
  }
  EXPECT_NEAR(Auc(scored), 0.5, 0.05);
}

TEST(EvaluatorTest, AucHandlesTies) {
  std::vector<std::pair<double, bool>> scored = {
      {1.0, true}, {1.0, false}, {1.0, true}, {1.0, false}};
  EXPECT_DOUBLE_EQ(Auc(scored), 0.5);
  EXPECT_DOUBLE_EQ(Auc({{1.0, true}}), 0.5);  // degenerate
}

// ---------- EmbeddingStore ----------

TEST(EmbeddingStoreTest, FromTrainedAndLookup) {
  kg::GeneratedKg gen = MakeKg();
  auto view = graph_engine::GraphView::Build(gen.kg,
                                             graph_engine::ViewDefinition());
  TrainingConfig config;
  config.epochs = 1;
  config.dim = 8;
  InMemoryTrainer trainer(config);
  const TrainedEmbeddings emb = trainer.Train(view);
  const EmbeddingStore store = EmbeddingStore::FromTrained(emb, view);
  EXPECT_EQ(store.size(), view.num_entities());
  EXPECT_EQ(store.dim(), 8);
  const kg::EntityId some = view.global_entity(0);
  const std::span<const float> row = store.Get(some);
  ASSERT_FALSE(row.empty());
  EXPECT_EQ(std::vector<float>(row.begin(), row.end()),
            RowOf(emb.entities, 0, config.dim));
  EXPECT_TRUE(store.Get(kg::EntityId(999999)).empty());
}

TEST(EmbeddingStoreTest, SaveLoadRoundTrip) {
  auto dir = MakeTempDir("saga_emb_store");
  ASSERT_TRUE(dir.ok());
  const EmbeddingStore store =
      test_shard::StoreFromRows({{kg::EntityId(9), {-1.0f, 0.5f}},
                                {kg::EntityId(3), {1.0f, 2.0f}}})
          .value();
  const std::string path = JoinPath(*dir, "store.bin");
  ASSERT_TRUE(store.Save(path).ok());
  auto loaded = EmbeddingStore::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  const std::span<const float> row = loaded->Get(kg::EntityId(3));
  EXPECT_EQ(std::vector<float>(row.begin(), row.end()),
            (std::vector<float>{1.0f, 2.0f}));
  EXPECT_EQ(loaded->rows()->labels(), (std::vector<uint64_t>{3, 9}));
  (void)RemoveDirRecursively(*dir);
}

TEST(EmbeddingStoreTest, CopiesShareOneRowMatrix) {
  const EmbeddingStore store =
      test_shard::StoreFromRows({{kg::EntityId(2), {1.0f, 2.0f}}}).value();
  const EmbeddingStore copy = store;  // NOLINT(performance-unnecessary-copy)
  EXPECT_EQ(copy.rows().get(), store.rows().get());
  EXPECT_EQ(copy.Get(kg::EntityId(2)).data(),
            store.Get(kg::EntityId(2)).data());
}

// ---------- EMB2 decoder ----------

/// A decoded store must be what the format promises: ascending ids,
/// each with dim() > 0 floats.
void ExpectWellFormed(const EmbeddingStore& store) {
  const std::vector<uint64_t>& ids = store.rows()->labels();
  ASSERT_EQ(ids.size(), store.size());
  if (!ids.empty()) {
    ASSERT_GT(store.dim(), 0);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) {
      ASSERT_LT(ids[i - 1], ids[i]);
    }
    ASSERT_EQ(store.Get(kg::EntityId(ids[i])).size(),
              static_cast<size_t>(store.dim()));
  }
}

// Seeded mutation harness over EmbeddingStore's EMB2 decoder, resealing
// the CRC after every mutation: truncation at every length, rows longer
// or shorter than dim, dim 0 or past the payload, row counts past the
// payload, duplicate and descending ids, trailing bytes, bit flips and
// random payloads. Every input must load a well-formed store or return
// Corruption. The valid stores go through Save and Load on disk; the
// ~14k mutated images go to Decode, Load's decode, from memory, since a
// file write and rename per input made the harness wait on the disk.
TEST(EmbeddingStoreTest, DecoderIsTotalUnderMutation) {
  const char* env = std::getenv("SAGA_CHAOS_SEED");
  const uint64_t seed =
      env != nullptr && *env != '\0' ? std::strtoull(env, nullptr, 10) : 1919;
  SCOPED_TRACE("replay with SAGA_CHAOS_SEED=" + std::to_string(seed));
  std::printf("EMB2 mutation harness: SAGA_CHAOS_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  Rng rng(seed);
  auto dir = MakeTempDir("saga_emb_mutation");
  ASSERT_TRUE(dir.ok());
  const std::string path = JoinPath(*dir, "store.bin");

  uint64_t inputs = 0;
  uint64_t accepted = 0;
  auto load = [&](std::string_view payload) {
    ++inputs;
    return EmbeddingStore::Decode(Sealed(payload), "mutated image");
  };
  auto check = [&](std::string_view payload) {
    auto loaded = load(payload);
    if (!loaded.ok()) {
      EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
      return;
    }
    ++accepted;
    ExpectWellFormed(*loaded);
  };
  auto expect_corrupt = [&](std::string_view payload, const char* what) {
    auto loaded = load(payload);
    EXPECT_TRUE(loaded.status().IsCorruption())
        << what << ": " << loaded.status();
  };

  // Valid stores: what Save writes, which Load must give back exactly.
  std::vector<std::vector<Row>> stores;
  std::vector<uint64_t> dims;
  for (int s = 0; s < 24; ++s) {
    const uint64_t dim = 1 + rng.Uniform(s % 3 == 0 ? 40 : 6);
    const size_t n = s == 0 ? 0 : 2 + rng.Uniform(9);
    std::vector<Row> rows(n);
    uint64_t id = rng.Uniform(4);
    for (Row& r : rows) {
      r.id = id;
      id += 1 + rng.Uniform(rng.Bernoulli(0.2) ? uint64_t{1} << 40 : 50);
      r.vec.resize(dim);
      for (float& x : r.vec) {
        x = rng.Bernoulli(0.1) ? -0.0f
                               : static_cast<float>(rng.NextGaussian());
      }
    }
    std::vector<std::pair<kg::EntityId, std::vector<float>>> pairs;
    for (const Row& r : rows) pairs.emplace_back(kg::EntityId(r.id), r.vec);
    ASSERT_TRUE(test_shard::StoreFromRows(pairs).value().Save(path).ok());
    auto saved = ReadFileToString(path);
    ASSERT_TRUE(saved.ok());
    ASSERT_EQ(*saved, Sealed(Payload(n == 0 ? 0 : dim, n, rows)))
        << "Save must write the layout this harness mutates";
    ++inputs;
    auto loaded = EmbeddingStore::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ASSERT_EQ(loaded->size(), n);
    for (const Row& r : rows) {
      const std::span<const float> got = loaded->Get(kg::EntityId(r.id));
      ASSERT_EQ(got.size(), r.vec.size());
      EXPECT_EQ(std::memcmp(got.data(), r.vec.data(), got.size_bytes()), 0);
    }
    stores.push_back(std::move(rows));
    dims.push_back(dim);
  }

  // Every strict prefix of every payload.
  for (size_t s = 0; s < stores.size(); ++s) {
    const std::string payload = Payload(dims[s], stores[s].size(), stores[s]);
    for (size_t len = 0; len < payload.size(); ++len) {
      expect_corrupt(std::string_view(payload).substr(0, len), "prefix");
    }
  }

  // Directed mutations of the stores with rows.
  for (int i = 0; i < 2800; ++i) {
    const size_t s = 1 + rng.Uniform(stores.size() - 1);
    std::vector<Row> rows = stores[s];
    uint64_t dim = dims[s];
    uint64_t n = rows.size();
    const size_t j = 1 + rng.Uniform(rows.size() - 1);
    const char* what = "";
    switch (i % 7) {
      case 0:
        what = "row length differs from dim";
        if (rng.Bernoulli(0.5)) {
          rows[j].vec.resize(rows[j].vec.size() - 1);
        } else {
          rows[j].vec.resize(rows[j].vec.size() + 1 + rng.Uniform(3), 1.0f);
        }
        break;
      case 1:
        what = "dim 0 with rows";
        dim = 0;
        break;
      case 2: {
        what = "dim past the payload";
        const uint64_t huge[] = {uint64_t{1} << 31, uint64_t{1} << 62,
                                 ~uint64_t{0}, 100000 + rng.Uniform(1000)};
        dim = huge[rng.Uniform(4)];
        break;
      }
      case 3: {
        what = "row count past the payload";
        const uint64_t huge[] = {n + 1 + rng.Uniform(1000),
                                 uint64_t{1} << 40, uint64_t{1} << 62,
                                 ~uint64_t{0}};
        n = huge[rng.Uniform(4)];
        break;
      }
      case 4:
        what = "duplicate id";
        rows[j].id = rows[j - 1].id;
        break;
      case 5:
        what = "descending ids";
        std::swap(rows[j].id, rows[j - 1].id);
        break;
      case 6:
        what = "bytes after the last row";
        break;
    }
    std::string payload = Payload(dim, n, rows);
    if (i % 7 == 6) {
      for (uint64_t b = 1 + rng.Uniform(4); b > 0; --b) {
        payload.push_back(static_cast<char>(rng.Uniform(256)));
      }
    }
    expect_corrupt(payload, what);
  }

  // Bit flips anywhere in a payload, and random payloads.
  for (int i = 0; i < 5000; ++i) {
    const size_t s = rng.Uniform(stores.size());
    std::string payload = Payload(dims[s], stores[s].size(), stores[s]);
    for (uint64_t f = 1 + rng.Uniform(4); f > 0; --f) {
      payload[rng.Uniform(payload.size())] ^=
          static_cast<char>(1u << rng.Uniform(8));
    }
    check(payload);
  }
  for (int i = 0; i < 1500; ++i) {
    std::string payload(rng.Uniform(48), '\0');
    for (char& c : payload) c = static_cast<char>(rng.Uniform(256));
    if (payload.size() >= 2 && rng.Bernoulli(0.5)) {
      payload[0] = static_cast<char>(1 + rng.Uniform(4));  // small dim
      payload[1] = static_cast<char>(rng.Uniform(4));      // few rows
    }
    check(payload);
  }
  std::printf("EMB2 mutation harness: %llu inputs, %llu loaded\n",
              static_cast<unsigned long long>(inputs),
              static_cast<unsigned long long>(accepted));
  EXPECT_GE(inputs, 10000u);
  (void)RemoveDirRecursively(*dir);
}

}  // namespace
}  // namespace saga::embedding
