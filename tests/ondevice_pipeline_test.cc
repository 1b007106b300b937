#include <gtest/gtest.h>

#include "common/file_util.h"
#include "common/serialization.h"
#include "ondevice/device_data_generator.h"
#include "ondevice/incremental_pipeline.h"
#include "ondevice/matcher.h"
#include "storage/kv_store.h"

namespace saga::ondevice {
namespace {

DeviceDataset MakeData() { return GenerateDeviceData(/*num_persons=*/60); }

/// The stage a pipeline is in: its checkpoint opens with the stage byte.
IncrementalPipeline::Stage StageOf(const IncrementalPipeline& pipeline) {
  return static_cast<IncrementalPipeline::Stage>(pipeline.Checkpoint()[0]);
}

std::vector<uint32_t> RunToCompletion(const std::vector<SourceRecord>& records) {
  IncrementalPipeline pipeline(&records);
  while (!pipeline.done()) pipeline.RunSteps(1000);
  return pipeline.clusters();
}

TEST(IncrementalPipelineTest, CompletesAndMatchesQuality) {
  DeviceDataset data = MakeData();
  const auto clusters = RunToCompletion(data.records);
  ASSERT_EQ(clusters.size(), data.records.size());
  const auto quality = EvaluateClustering(clusters, data.truth);
  EXPECT_GT(quality.f1, 0.8);
}

TEST(IncrementalPipelineTest, StepBudgetIsRespected) {
  DeviceDataset data = MakeData();
  IncrementalPipeline pipeline(&data.records);
  const size_t ran = pipeline.RunSteps(5);
  EXPECT_EQ(ran, 5u);
  EXPECT_FALSE(pipeline.done());
  EXPECT_EQ(pipeline.steps_executed(), 5u);
}

TEST(IncrementalPipelineTest, ProgressesThroughStages) {
  DeviceDataset data = MakeData();
  IncrementalPipeline pipeline(&data.records);
  EXPECT_EQ(StageOf(pipeline), IncrementalPipeline::Stage::kIngest);
  pipeline.RunSteps(data.records.size());
  EXPECT_EQ(StageOf(pipeline), IncrementalPipeline::Stage::kBlock);
  while (!pipeline.done()) pipeline.RunSteps(1000);
  EXPECT_EQ(StageOf(pipeline), IncrementalPipeline::Stage::kDone);
  EXPECT_EQ(pipeline.RunSteps(10), 0u);
}

/// Core §5 property: pausing/resuming at ANY granularity produces
/// exactly the same result as an uninterrupted run.
class PauseResumeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PauseResumeTest, ChoppyExecutionMatchesStraightRun) {
  DeviceDataset data = MakeData();
  const auto reference = RunToCompletion(data.records);

  IncrementalPipeline pipeline(&data.records);
  while (!pipeline.done()) {
    pipeline.RunSteps(GetParam());
  }
  EXPECT_EQ(pipeline.clusters(), reference);
}

INSTANTIATE_TEST_SUITE_P(StepSizes, PauseResumeTest,
                         ::testing::Values(1, 7, 64, 1000));

TEST(CheckpointTest, RestoreMidIngestProducesIdenticalResult) {
  DeviceDataset data = MakeData();
  const auto reference = RunToCompletion(data.records);

  IncrementalPipeline pipeline(&data.records);
  pipeline.RunSteps(data.records.size() / 2);  // mid-ingest
  const std::string checkpoint = pipeline.Checkpoint();

  auto restored = IncrementalPipeline::Restore(&data.records, checkpoint);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(StageOf(*restored), StageOf(pipeline));
  EXPECT_EQ(restored->steps_executed(), pipeline.steps_executed());
  while (!restored->done()) restored->RunSteps(1000);
  EXPECT_EQ(restored->clusters(), reference);
}

TEST(CheckpointTest, RestoreAtEveryStageBoundary) {
  DeviceDataset data = MakeData();
  const auto reference = RunToCompletion(data.records);

  IncrementalPipeline probe(&data.records);
  std::vector<std::string> checkpoints;
  IncrementalPipeline::Stage last_stage = StageOf(probe);
  checkpoints.push_back(probe.Checkpoint());
  while (!probe.done()) {
    probe.RunSteps(1);
    if (StageOf(probe) != last_stage) {
      checkpoints.push_back(probe.Checkpoint());
      last_stage = StageOf(probe);
    }
  }
  EXPECT_GE(checkpoints.size(), 4u);  // ingest, block, match, fuse/done
  for (const std::string& cp : checkpoints) {
    auto restored = IncrementalPipeline::Restore(&data.records, cp);
    ASSERT_TRUE(restored.ok());
    while (!restored->done()) restored->RunSteps(512);
    EXPECT_EQ(restored->clusters(), reference);
  }
}

TEST(CheckpointTest, CheckpointSurvivesKvStore) {
  DeviceDataset data = MakeData();
  auto dir = MakeTempDir("saga_ckpt_kv");
  ASSERT_TRUE(dir.ok());
  IncrementalPipeline pipeline(&data.records);
  pipeline.RunSteps(100);
  {
    auto kv = storage::KvStore::Open(*dir);
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE(
        (*kv)->Put("construction_checkpoint", pipeline.Checkpoint()).ok());
    ASSERT_TRUE((*kv)->Flush().ok());
  }
  // "Reboot": reopen store, restore, finish.
  auto kv = storage::KvStore::Open(*dir);
  ASSERT_TRUE(kv.ok());
  auto blob = (*kv)->Get("construction_checkpoint");
  ASSERT_TRUE(blob.ok());
  auto restored = IncrementalPipeline::Restore(&data.records, *blob);
  ASSERT_TRUE(restored.ok());
  while (!restored->done()) restored->RunSteps(1000);
  EXPECT_EQ(restored->clusters(), RunToCompletion(data.records));
  (void)RemoveDirRecursively(*dir);
}

TEST(CheckpointTest, GarbageCheckpointRejected) {
  DeviceDataset data = MakeData();
  EXPECT_FALSE(IncrementalPipeline::Restore(&data.records, "garbage").ok());
}

TEST(CheckpointTest, HugePostingCountIsCorruption) {
  DeviceDataset data = MakeData();
  std::string checkpoint;
  BinaryWriter w(&checkpoint);
  w.PutU8(static_cast<uint8_t>(IncrementalPipeline::Stage::kIngest));
  w.PutVarint64(0);  // steps executed
  w.PutVarint64(0);  // peak state bytes
  w.PutVarint64(0);  // ingest position
  w.PutVarint64(1);  // one posting list...
  w.PutString("k");
  w.PutVarint64(uint64_t{1} << 40);  // ...claiming 2^40 entries
  ASSERT_EQ(checkpoint.size(), 13u);
  auto restored = IncrementalPipeline::Restore(&data.records, checkpoint);
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsCorruption()) << restored.status();
}

TEST(CheckpointTest, IngestPositionPastTheRecordsIsCorruption) {
  DeviceDataset data = MakeData();
  std::string checkpoint;
  BinaryWriter w(&checkpoint);
  w.PutU8(static_cast<uint8_t>(IncrementalPipeline::Stage::kIngest));
  w.PutVarint64(0);                    // steps executed
  w.PutVarint64(0);                    // peak state bytes
  w.PutVarint64(data.records.size());  // ingest position: one past the end
  for (int field = 0; field < 8; ++field) w.PutVarint64(0);  // empty state
  auto restored = IncrementalPipeline::Restore(&data.records, checkpoint);
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsCorruption()) << restored.status();
}

TEST(CheckpointTest, CheckpointOfMoreRecordsIsCorruption) {
  DeviceDataset data = MakeData();
  IncrementalPipeline pipeline(&data.records);
  while (!pipeline.done()) pipeline.RunSteps(1000);
  const std::string checkpoint = pipeline.Checkpoint();
  ASSERT_TRUE(IncrementalPipeline::Restore(&data.records, checkpoint).ok());
  // Its record ids and cluster count no longer fit a shorter input.
  const std::vector<SourceRecord> fewer(
      data.records.begin(), data.records.begin() + data.records.size() / 2);
  auto restored = IncrementalPipeline::Restore(&fewer, checkpoint);
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsCorruption()) << restored.status();
}

TEST(CheckpointTest, TrailingBytesAreCorruption) {
  DeviceDataset data = MakeData();
  IncrementalPipeline pipeline(&data.records);
  pipeline.RunSteps(data.records.size() / 2);
  auto restored =
      IncrementalPipeline::Restore(&data.records, pipeline.Checkpoint() + "x");
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsCorruption()) << restored.status();
}

TEST(CheckpointTest, EveryTruncatedCheckpointIsRejected) {
  DeviceDataset data = MakeData();
  IncrementalPipeline pipeline(&data.records);
  pipeline.RunSteps(data.records.size() / 2);
  ASSERT_EQ(StageOf(pipeline), IncrementalPipeline::Stage::kIngest);
  const std::string checkpoint = pipeline.Checkpoint();
  for (size_t len = 0; len < checkpoint.size(); ++len) {
    // A throw fails the test as well as an OK would.
    auto restored = IncrementalPipeline::Restore(
        &data.records, std::string_view(checkpoint).substr(0, len));
    EXPECT_FALSE(restored.ok()) << "prefix of " << len << " bytes";
  }
}

TEST(IncrementalPipelineTest, StateMemoryIsTrackedAndBounded) {
  DeviceDataset data = MakeData();
  IncrementalPipeline pipeline(&data.records);
  while (!pipeline.done()) pipeline.RunSteps(100);
  EXPECT_GT(pipeline.peak_state_bytes(), 0u);
  // Intermediate state should be far below the quadratic worst case of
  // n^2 pairs * 40 bytes.
  const size_t n = data.records.size();
  EXPECT_LT(pipeline.peak_state_bytes(), n * n * 40 / 4);
}

TEST(IncrementalPipelineTest, EmptyInputIsImmediatelyDone) {
  std::vector<SourceRecord> empty;
  IncrementalPipeline pipeline(&empty);
  EXPECT_TRUE(pipeline.done());
  EXPECT_TRUE(pipeline.clusters().empty());
  EXPECT_TRUE(pipeline.FusedPersons().empty());
}

TEST(IncrementalPipelineTest, FusedPersonsMatchClusterCount) {
  DeviceDataset data = MakeData();
  IncrementalPipeline pipeline(&data.records);
  while (!pipeline.done()) pipeline.RunSteps(1000);
  const auto fused = pipeline.FusedPersons();
  std::set<uint32_t> distinct(pipeline.clusters().begin(),
                              pipeline.clusters().end());
  EXPECT_EQ(fused.size(), distinct.size());
}

}  // namespace
}  // namespace saga::ondevice
