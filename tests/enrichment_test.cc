#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

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

/// The facts a top-k asset of `kg` ships: the kTopKEntities most
/// popular entities (ties by id), at most kMaxFactsPerEntity each.
size_t TopKFacts(const kg::KnowledgeGraph& kg) {
  std::vector<std::pair<double, kg::EntityId>> ranked;
  for (const auto& rec : kg.catalog().records()) {
    ranked.emplace_back(-rec.popularity, rec.id);
  }
  std::sort(ranked.begin(), ranked.end());
  size_t facts = 0;
  for (size_t i = 0; i < StaticKnowledgeAsset::kTopKEntities; ++i) {
    facts += std::min(kg.triples().BySubject(ranked[i].second).size(),
                      StaticKnowledgeAsset::kMaxFactsPerEntity);
  }
  return facts;
}

TEST(StaticAssetTest, ShipsTheMostPopularEntities) {
  kg::GeneratedKg gen = MakeKg();
  // The top-k cap bites: some entities stay out of the asset.
  ASSERT_GT(gen.kg.catalog().size(), StaticKnowledgeAsset::kTopKEntities);
  const auto asset = StaticKnowledgeAsset::Build(gen.kg);
  EXPECT_GT(asset.num_facts(), StaticKnowledgeAsset::kTopKEntities);
  // Membership is the top-k by popularity: the shipped facts are
  // exactly theirs, and the size estimate counts k entities.
  EXPECT_EQ(asset.num_facts(), TopKFacts(gen.kg));
  EXPECT_EQ(asset.EstimatedBytes(),
            asset.num_facts() * 48 + StaticKnowledgeAsset::kTopKEntities * 16);
}

TEST(StaticAssetTest, FactsAreCappedPerEntity) {
  kg::GeneratedKg gen = MakeKg();
  const auto asset = StaticKnowledgeAsset::Build(gen.kg);
  EXPECT_LE(asset.num_facts(), StaticKnowledgeAsset::kTopKEntities *
                                   StaticKnowledgeAsset::kMaxFactsPerEntity);
  EXPECT_GT(asset.EstimatedBytes(), 0u);
}

TEST(StaticAssetTest, RefreshTracksKgGrowth) {
  kg::GeneratedKg gen = MakeKg();
  auto asset = StaticKnowledgeAsset::Build(gen.kg);
  const size_t facts_before = asset.num_facts();

  // A new hyper-popular entity enters the KG (trending) with a full
  // set of facts, displacing the least popular member.
  const kg::EntityId star = gen.kg.catalog().AddEntity(
      "Breakout Star", {gen.schema.person}, 10.0);
  const kg::SourceId src = gen.kg.AddSource("trending", 1.0);
  for (size_t i = 0; i < StaticKnowledgeAsset::kMaxFactsPerEntity; ++i) {
    gen.kg.AddFact(star, gen.schema.spouse,
                   kg::Value::Entity(kg::EntityId(i)), src);
  }
  ASSERT_NE(TopKFacts(gen.kg), facts_before);
  EXPECT_EQ(asset.num_facts(), facts_before);
  asset.Refresh(gen.kg);
  EXPECT_EQ(asset.num_facts(), TopKFacts(gen.kg));
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
