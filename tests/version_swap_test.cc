// Validated hot-swap tests: a candidate serving version must pass the
// checksum + catalog-invariant + sampled-diff canary before the RCU
// flip, a rejected candidate never takes traffic, and a flipped-in
// version that fails probation is rolled back automatically.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "counter_delta.h"
#include "embedding/embedding_store.h"
#include "embedding_rows.h"
#include "serving/version_manager.h"
#include "storage/kv_store.h"

namespace saga::serving {
namespace {

using storage::KvStore;

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%04d", i);
  return buf;
}

class VersionSwapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetMinLogLevel(LogLevel::kError);
    auto dir = MakeTempDir("saga_versions");
    ASSERT_TRUE(dir.ok());
    root_ = *dir;
  }
  void TearDown() override {
    Faults().DisarmAll();
    (void)RemoveDirRecursively(root_);
    SetMinLogLevel(LogLevel::kInfo);
  }

  /// Builds a version directory: `num_keys` rows tagged `tag`, plus an
  /// embedding shard when `dim` > 0.
  std::string BuildVersionDir(const std::string& id, int num_keys,
                              const std::string& tag, int dim = 0) {
    const std::string dir = JoinPath(root_, id);
    auto store = KvStore::Open(dir);
    EXPECT_TRUE(store.ok());
    for (int i = 0; i < num_keys; ++i) {
      EXPECT_TRUE((*store)->Put(Key(i), tag + std::to_string(i)).ok());
    }
    EXPECT_TRUE((*store)->Flush().ok());
    if (dim > 0) {
      std::vector<std::pair<kg::EntityId, std::vector<float>>> rows;
      for (int i = 0; i < num_keys; ++i) {
        rows.emplace_back(kg::EntityId{static_cast<uint64_t>(i + 1)},
                          std::vector<float>(dim, static_cast<float>(i)));
      }
      EXPECT_TRUE(embedding::test_shard::WriteShard(
                      JoinPath(dir, embedding::EmbeddingStore::kShardFileName),
                      std::move(rows))
                      .ok());
    }
    return dir;
  }

  std::shared_ptr<ServingVersion> Load(const std::string& id) {
    auto v = VersionManager::LoadVersion(id, JoinPath(root_, id));
    EXPECT_TRUE(v.ok()) << v.status();
    return v.ok() ? *v : nullptr;
  }

  std::string root_;
};

TEST_F(VersionSwapTest, ActivateThenSwapCommitsAfterProbation) {
  BuildVersionDir("v1", 100, "old");
  BuildVersionDir("v2", 100, "new");

  const CounterDelta attempts(SAGA_COUNTER("version.swap.attempts"));
  const CounterDelta committed(SAGA_COUNTER("version.swap.committed"));
  const CounterDelta rollbacks(SAGA_COUNTER("version.swap.rollbacks"));
  VersionManager mgr(VersionManager::Options{});
  std::shared_ptr<ServingVersion> v1 = Load("v1");
  const std::weak_ptr<ServingVersion> old = v1;
  ASSERT_TRUE(mgr.Activate(std::move(v1)).ok());
  EXPECT_EQ(mgr.current_id(), "v1");
  EXPECT_FALSE(mgr.InProbation());

  ASSERT_TRUE(mgr.SwapTo(Load("v2")).ok());
  EXPECT_EQ(mgr.current_id(), "v2");
  EXPECT_FALSE(old.expired());  // kept for rollback during probation
  EXPECT_TRUE(mgr.InProbation());
  EXPECT_EQ(attempts(), 1);
  // The flip counts itself ahead of its commit.
  EXPECT_EQ(SAGA_GAUGE("version.serving.age_swaps").Value(),
            static_cast<double>(SAGA_COUNTER("version.swap.committed").Value() +
                                1));

  // New requests see the new version and answer from it.
  auto cur = mgr.Current();
  ASSERT_NE(cur, nullptr);
  auto got = cur->kv->Get(Key(3));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "new3");

  for (uint64_t i = 1; i < VersionManager::kProbationRequests; ++i) {
    mgr.RecordRequestOutcome(true);
  }
  EXPECT_TRUE(mgr.InProbation());
  mgr.RecordRequestOutcome(true);
  EXPECT_FALSE(mgr.InProbation());
  EXPECT_TRUE(old.expired());  // old version released at commit
  EXPECT_EQ(committed(), 1);
  EXPECT_EQ(rollbacks(), 0);
}

TEST_F(VersionSwapTest, ActivateRefusesSecondBaseline) {
  BuildVersionDir("v1", 10, "a");
  BuildVersionDir("v2", 10, "b");
  VersionManager mgr(VersionManager::Options{});
  ASSERT_TRUE(mgr.Activate(Load("v1")).ok());
  Status again = mgr.Activate(Load("v2"));
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(mgr.current_id(), "v1");
}

TEST_F(VersionSwapTest, SwapRejectsCatalogShrink) {
  BuildVersionDir("v1", 100, "old");
  BuildVersionDir("v2", 10, "new");  // dropped 90% of the catalog

  VersionManager mgr(VersionManager::Options{});
  ASSERT_TRUE(mgr.Activate(Load("v1")).ok());
  const CounterDelta rejected(SAGA_COUNTER("version.swap.rejected"));
  Status s = mgr.SwapTo(Load("v2"));
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(s.IsDataLoss());  // deploy-time bug, not rot

  // The rejected candidate never took traffic; v1 still serves.
  EXPECT_EQ(mgr.current_id(), "v1");
  auto got = mgr.Current()->kv->Get(Key(50));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "old50");
  EXPECT_EQ(rejected(), 1);
}

TEST_F(VersionSwapTest, SwapRejectsSampledQueryRegression) {
  BuildVersionDir("v1", 100, "old");
  // Same key COUNT, disjoint key SPACE: the coverage floor passes but
  // every sampled live query misses in the candidate.
  {
    const std::string dir = JoinPath(root_, "v2");
    auto store = KvStore::Open(dir);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*store)->Put("other" + std::to_string(i), "x").ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  VersionManager mgr(VersionManager::Options{});
  ASSERT_TRUE(mgr.Activate(Load("v1")).ok());
  Status s = mgr.SwapTo(Load("v2"));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(mgr.current_id(), "v1");
}

TEST_F(VersionSwapTest, SwapRejectsRottedCandidateAsDataLoss) {
  BuildVersionDir("v1", 100, "old");
  BuildVersionDir("v2", 100, "new");

  VersionManager mgr(VersionManager::Options{});
  ASSERT_TRUE(mgr.Activate(Load("v1")).ok());
  auto candidate = Load("v2");
  ASSERT_NE(candidate, nullptr);

  // The candidate's bytes rot between load and deploy: the checksum
  // pass inside validation catches it and the flip never happens.
  ScopedFault rot("sstable.read_block", FaultSpec{FaultKind::kCorrupt});
  const CounterDelta rejected(SAGA_COUNTER("version.swap.rejected"));
  Status s = mgr.SwapTo(candidate);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsDataLoss()) << s;
  EXPECT_EQ(mgr.current_id(), "v1");
  EXPECT_EQ(rejected(), 1);
}

TEST_F(VersionSwapTest, ProbationErrorSpikeRollsBack) {
  BuildVersionDir("v1", 50, "old");
  BuildVersionDir("v2", 50, "new");

  VersionManager mgr(VersionManager::Options{});
  ASSERT_TRUE(mgr.Activate(Load("v1")).ok());
  std::shared_ptr<ServingVersion> v2 = Load("v2");
  const std::weak_ptr<ServingVersion> candidate = v2;
  ASSERT_TRUE(mgr.SwapTo(std::move(v2)).ok());
  ASSERT_TRUE(mgr.InProbation());
  const CounterDelta rollbacks(SAGA_COUNTER("version.swap.rollbacks"));
  const CounterDelta committed(SAGA_COUNTER("version.swap.committed"));
  const CounterDelta errors(SAGA_COUNTER("version.swap.probation_errors"));

  // Seven of the first ten outcomes fail — past the 50% threshold.
  for (int i = 0; i < 10; ++i) mgr.RecordRequestOutcome(i >= 7);

  EXPECT_FALSE(mgr.InProbation());
  EXPECT_EQ(mgr.current_id(), "v1");  // rolled back
  EXPECT_TRUE(candidate.expired());
  EXPECT_EQ(rollbacks(), 1);
  EXPECT_EQ(committed(), 0);
  EXPECT_EQ(errors(), 7);

  // The restored baseline still answers.
  auto got = mgr.Current()->kv->Get(Key(7));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "old7");
}

TEST_F(VersionSwapTest, CleanProbationKeepsNewVersion) {
  BuildVersionDir("v1", 50, "old");
  BuildVersionDir("v2", 50, "new");
  VersionManager mgr(VersionManager::Options{});
  ASSERT_TRUE(mgr.Activate(Load("v1")).ok());
  ASSERT_TRUE(mgr.SwapTo(Load("v2")).ok());
  const CounterDelta rollbacks(SAGA_COUNTER("version.swap.rollbacks"));
  const CounterDelta committed(SAGA_COUNTER("version.swap.committed"));
  // A few scattered errors below the threshold must not trigger
  // rollback.
  for (uint64_t i = 0; i < VersionManager::kProbationRequests; ++i) {
    mgr.RecordRequestOutcome(i % 10 != 0);
  }
  EXPECT_FALSE(mgr.InProbation());
  EXPECT_EQ(mgr.current_id(), "v2");
  EXPECT_EQ(rollbacks(), 0);
  EXPECT_EQ(committed(), 1);
}

TEST_F(VersionSwapTest, RcuReadersFinishOnTheVersionTheyStarted) {
  BuildVersionDir("v1", 20, "old");
  BuildVersionDir("v2", 20, "new");
  VersionManager mgr(VersionManager::Options{});
  ASSERT_TRUE(mgr.Activate(Load("v1")).ok());

  // An in-flight request pinned the old version...
  auto in_flight = mgr.Current();
  ASSERT_TRUE(mgr.SwapTo(Load("v2")).ok());

  // ...and keeps reading consistent data from it after the flip.
  EXPECT_EQ(in_flight->id, "v1");
  auto got = in_flight->kv->Get(Key(5));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "old5");
  EXPECT_EQ(mgr.Current()->id, "v2");
}

TEST_F(VersionSwapTest, LoadVersionBuildsEmbeddingService) {
  BuildVersionDir("v1", 30, "val", /*dim=*/8);
  auto v = Load("v1");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->key_count, 30u);
  EXPECT_EQ(v->embeddings.size(), 30u);
  ASSERT_NE(v->service, nullptr);
  // One copy of the rows: the service's index reads the version's.
  EXPECT_EQ(v->service->store().rows().get(), v->embeddings.rows().get());
  EXPECT_EQ(v->service->index().rows().row(0), v->embeddings.rows()->row(0));
}

TEST_F(VersionSwapTest, NullAndMissingCandidatesAreInvalid) {
  VersionManager mgr(VersionManager::Options{});
  EXPECT_FALSE(mgr.Activate(nullptr).ok());
  EXPECT_FALSE(mgr.SwapTo(nullptr).ok());
  BuildVersionDir("v1", 5, "a");
  ASSERT_TRUE(mgr.Activate(Load("v1")).ok());
  // Swapping with no prior Activate is the other way around:
  VersionManager fresh(VersionManager::Options{});
  BuildVersionDir("v2", 5, "b");
  Status s = fresh.SwapTo(Load("v2"));
  ASSERT_FALSE(s.ok());
}

}  // namespace
}  // namespace saga::serving
