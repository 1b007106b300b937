#include <gtest/gtest.h>

#include "common/file_util.h"
#include "embedding/disk_trainer.h"
#include "embedding/evaluator.h"
#include "kg/kg_generator.h"

namespace saga::embedding {
namespace {

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

class DiskTrainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("saga_disk_trainer");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { (void)RemoveDirRecursively(dir_); }
  std::string dir_;
};

TEST_F(DiskTrainerTest, RejectsBadOptions) {
  TrainingConfig config;
  DiskTrainerOptions opts;
  opts.work_dir = dir_;
  opts.buffer_partitions = 1;
  DiskTrainer t1(config, opts);
  kg::GeneratedKg gen = MakeKg();
  auto view =
      graph_engine::GraphView::Build(gen.kg, graph_engine::ViewDefinition());
  EXPECT_FALSE(t1.Train(view).ok());

  DiskTrainerOptions no_dir;
  no_dir.work_dir = "";
  DiskTrainer t2(config, no_dir);
  EXPECT_FALSE(t2.Train(view).ok());
}

TEST_F(DiskTrainerTest, TrainsWithBoundedResidency) {
  kg::GeneratedKg gen = MakeKg();
  auto view =
      graph_engine::GraphView::Build(gen.kg, graph_engine::ViewDefinition());
  TrainingConfig config;
  config.model = ModelKind::kDistMult;
  config.dim = 16;
  config.epochs = 3;
  DiskTrainerOptions opts;
  opts.work_dir = dir_;
  opts.buffer_partitions = 2;
  DiskTrainer trainer(config, opts);
  auto result = trainer.Train(view);
  ASSERT_TRUE(result.ok());

  // Residency bound: at most buffer_partitions partitions in memory.
  // Partitions are ~ num_entities/8 rows of dim 16 floats (x2 for
  // Adagrad state).
  const uint64_t per_partition_bytes =
      (view.num_entities() / DiskTrainer::kNumPartitions + 2) * 16 * 8;
  EXPECT_LE(trainer.stats().peak_resident_bytes,
            2 * per_partition_bytes + 1024);
  EXPECT_GT(trainer.stats().partition_loads, 8u);   // swapped repeatedly
  EXPECT_GT(trainer.stats().partition_evictions, 0u);
  EXPECT_GT(trainer.stats().bytes_read, 0u);
  EXPECT_GT(trainer.stats().bytes_written, 0u);
}

TEST_F(DiskTrainerTest, LossDecreasesAndModelLearns) {
  kg::GeneratedKg gen = MakeKg();
  auto view =
      graph_engine::GraphView::Build(gen.kg, graph_engine::ViewDefinition());
  TrainingConfig config;
  config.model = ModelKind::kDistMult;
  config.dim = 24;
  config.epochs = 6;
  config.holdout_fraction = 0.1;
  DiskTrainerOptions opts;
  opts.work_dir = dir_;
  opts.buffer_partitions = 2;
  DiskTrainer trainer(config, opts);
  auto result = trainer.Train(view);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->epoch_losses.size(), 6u);
  EXPECT_LT(result->epoch_losses.back(), result->epoch_losses.front());

  Rng rng(5);
  const double auc =
      EvaluateVerificationAuc(*result, view, result->holdout_edges, &rng);
  EXPECT_GT(auc, 0.7) << "disk-trained AUC too low";
}

TEST_F(DiskTrainerTest, LargerBufferLoadsFewerPartitions) {
  kg::GeneratedKg gen = MakeKg();
  auto view =
      graph_engine::GraphView::Build(gen.kg, graph_engine::ViewDefinition());
  TrainingConfig config;
  config.dim = 8;
  config.epochs = 2;

  DiskTrainerOptions small;
  small.work_dir = JoinPath(dir_, "small");
  small.buffer_partitions = 2;
  DiskTrainer t_small(config, small);
  ASSERT_TRUE(t_small.Train(view).ok());

  DiskTrainerOptions big;
  big.work_dir = JoinPath(dir_, "big");
  big.buffer_partitions = 8;  // everything resident
  DiskTrainer t_big(config, big);
  ASSERT_TRUE(t_big.Train(view).ok());

  EXPECT_LT(t_big.stats().partition_loads, t_small.stats().partition_loads);
  EXPECT_GT(t_small.stats().peak_resident_bytes, 0u);
  EXPECT_GT(t_big.stats().peak_resident_bytes,
            t_small.stats().peak_resident_bytes);
}

TEST_F(DiskTrainerTest, AssembledTableCoversAllEntities) {
  kg::GeneratedKg gen = MakeKg();
  auto view =
      graph_engine::GraphView::Build(gen.kg, graph_engine::ViewDefinition());
  TrainingConfig config;
  config.dim = 8;
  config.epochs = 1;
  DiskTrainerOptions opts;
  opts.work_dir = dir_;
  opts.buffer_partitions = 2;
  DiskTrainer trainer(config, opts);
  auto result = trainer.Train(view);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entities.rows(), view.num_entities());
  // Every row should have been initialized (non-zero with very high
  // probability).
  size_t zero_rows = 0;
  for (size_t r = 0; r < result->entities.rows(); ++r) {
    bool all_zero = true;
    for (int d = 0; d < 8; ++d) {
      if (result->entities.Row(r)[d] != 0.0f) all_zero = false;
    }
    if (all_zero) ++zero_rows;
  }
  EXPECT_EQ(zero_rows, 0u);
}

TEST_F(DiskTrainerTest, PartitionBufferEvictsWritesBack) {
  kg::GeneratedKg gen = MakeKg();
  auto view =
      graph_engine::GraphView::Build(gen.kg, graph_engine::ViewDefinition());
  Rng rng(1);
  graph_engine::EdgePartitioner partitioner(view, 4, &rng);
  PartitionBuffer buffer(&partitioner, 8, 2, JoinPath(dir_, "pb"));
  ASSERT_TRUE(buffer.Initialize(&rng, 0.1).ok());

  ASSERT_TRUE(buffer.EnsureResident(0).ok());
  ASSERT_TRUE(buffer.EnsureResident(1).ok());
  // Mutate a row of partition 0.
  const uint32_t entity = partitioner.partition_members(0)[0];
  const std::vector<float> before(buffer.Row(entity),
                                  buffer.Row(entity) + 8);
  std::vector<float> grad(8, 1.0f);
  buffer.ApplyGradient(entity, grad.data(), 0.5);
  const std::vector<float> mutated(buffer.Row(entity),
                                   buffer.Row(entity) + 8);
  EXPECT_NE(before, mutated);

  // Force eviction of partition 0 by loading 2 and 3.
  ASSERT_TRUE(buffer.EnsureResident(2).ok());
  ASSERT_TRUE(buffer.EnsureResident(3).ok());
  // Reload 0: mutation must have been persisted.
  ASSERT_TRUE(buffer.EnsureResident(0).ok());
  const std::vector<float> reloaded(buffer.Row(entity),
                                    buffer.Row(entity) + 8);
  EXPECT_EQ(reloaded, mutated);
}

}  // namespace
}  // namespace saga::embedding
