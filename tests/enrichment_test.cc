#include <gtest/gtest.h>

#include <cmath>

#include "kg/kg_generator.h"
#include "ondevice/enrichment.h"

namespace saga::ondevice {
namespace {

kg::GeneratedKg MakeKg() {
  kg::KgGeneratorConfig config;
  config.num_persons = 150;
  config.num_movies = 40;
  config.num_songs = 20;
  config.num_teams = 8;
  config.num_bands = 10;
  config.num_cities = 15;
  return kg::GenerateKg(config);
}

TEST(StaticAssetTest, ContainsMostPopularEntities) {
  kg::GeneratedKg gen = MakeKg();
  StaticKnowledgeAsset::Options opts;
  opts.top_k_entities = 50;
  const auto asset = StaticKnowledgeAsset::Build(gen.kg, opts);
  EXPECT_EQ(asset.num_entities(), 50u);
  EXPECT_GT(asset.num_facts(), 50u);

  // The single most popular entity must be in the asset.
  kg::EntityId most_popular;
  double best = -1.0;
  for (const auto& rec : gen.kg.catalog().records()) {
    if (rec.popularity > best) {
      best = rec.popularity;
      most_popular = rec.id;
    }
  }
  EXPECT_TRUE(asset.Contains(most_popular));
  EXPECT_GT(asset.num_facts(), 0u);

  // Every asset member's popularity >= every non-member's (top-k).
  double min_in_asset = 2.0;
  double max_outside = -1.0;
  for (const auto& rec : gen.kg.catalog().records()) {
    if (asset.Contains(rec.id)) {
      min_in_asset = std::min(min_in_asset, rec.popularity);
    } else {
      max_outside = std::max(max_outside, rec.popularity);
    }
  }
  EXPECT_GE(min_in_asset, max_outside - 1e-9);
}

TEST(StaticAssetTest, FactsAreCappedPerEntity) {
  kg::GeneratedKg gen = MakeKg();
  StaticKnowledgeAsset::Options opts;
  opts.top_k_entities = 30;
  const auto asset = StaticKnowledgeAsset::Build(gen.kg, opts);
  EXPECT_LE(asset.num_facts(),
            asset.num_entities() * StaticKnowledgeAsset::kMaxFactsPerEntity);
  EXPECT_GT(asset.EstimatedBytes(), 0u);
}

TEST(StaticAssetTest, RefreshTracksKgGrowthAndBumpsVersion) {
  kg::GeneratedKg gen = MakeKg();
  StaticKnowledgeAsset::Options opts;
  opts.top_k_entities = 20;
  auto asset = StaticKnowledgeAsset::Build(gen.kg, opts);
  const uint64_t v1 = asset.version();

  // A new hyper-popular entity enters the KG (trending).
  const kg::EntityId star = gen.kg.catalog().AddEntity(
      "Breakout Star", {gen.schema.person}, 10.0);
  const kg::SourceId src = gen.kg.AddSource("trending", 1.0);
  gen.kg.AddFact(star, gen.schema.born_in,
                 kg::Value::Entity(kg::EntityId(0)), src);
  EXPECT_FALSE(asset.Contains(star));
  asset.Refresh(gen.kg);
  EXPECT_TRUE(asset.Contains(star));
  EXPECT_GT(asset.version(), v1);
}

TEST(PiggybackTest, ReturnsFactsAboutQueriedEntity) {
  kg::GeneratedKg gen = MakeKg();
  // Any team (the "Blue Jays" of the example).
  kg::EntityId team;
  for (const auto& rec : gen.kg.catalog().records()) {
    if (gen.kg.catalog().HasType(rec.id, gen.schema.sports_team)) {
      team = rec.id;
      break;
    }
  }
  ASSERT_TRUE(team.valid());
  const auto facts = PiggybackEnrich(gen.kg, team, 5);
  ASSERT_FALSE(facts.empty());
  EXPECT_LE(facts.size(), 5u);
  for (const auto& t : facts) {
    EXPECT_EQ(t.subject, team);
  }
}

TEST(DpCounterTest, NoisyCountsCenterOnTruth) {
  DpCounter counter(/*epsilon_per_query=*/1.0, /*budget=*/1000.0, 7);
  double sum = 0.0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    sum += counter.NoisyCount(100.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 1.0);  // Laplace(1) mean error ~ 0
}

TEST(DpCounterTest, NoiseScalesInverselyWithEpsilon) {
  DpCounter tight(5.0, 1e9, 7);
  DpCounter loose(0.1, 1e9, 7);
  double tight_dev = 0.0;
  double loose_dev = 0.0;
  for (int i = 0; i < 300; ++i) {
    tight_dev += std::abs(tight.NoisyCount(0.0));
    loose_dev += std::abs(loose.NoisyCount(0.0));
  }
  EXPECT_GT(loose_dev, tight_dev * 5);
}

TEST(DpCounterTest, BudgetFailsClosed) {
  DpCounter counter(1.0, 2.5, 7);
  EXPECT_GE(counter.NoisyCount(1.0), -1e9);
  EXPECT_FALSE(counter.budget_exhausted());
  (void)counter.NoisyCount(1.0);
  (void)counter.NoisyCount(1.0);
  EXPECT_TRUE(counter.budget_exhausted());
  EXPECT_EQ(counter.NoisyCount(1.0), -1.0);
  EXPECT_NEAR(counter.epsilon_spent(), 3.0, 1e-9);
}

TEST(PirTest, FetchReturnsFactsButScansWholeDatabase) {
  kg::GeneratedKg gen = MakeKg();
  PirServer server(&gen.kg);
  const kg::EntityId target(5);
  const auto pir = server.Fetch(target);
  const auto direct = server.DirectFetch(target);

  // Same answer...
  ASSERT_EQ(pir.facts.size(), direct.facts.size());
  for (size_t i = 0; i < pir.facts.size(); ++i) {
    EXPECT_EQ(pir.facts[i].subject, target);
  }
  // ...but PIR pays the privacy tax (the paper's "expensive").
  EXPECT_EQ(pir.cells_scanned, gen.kg.num_entities());
  EXPECT_EQ(direct.cells_scanned, 1u);
  EXPECT_GT(pir.bytes_transferred, direct.bytes_transferred);
}

}  // namespace
}  // namespace saga::ondevice
