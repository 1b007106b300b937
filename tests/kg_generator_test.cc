#include <gtest/gtest.h>

#include <set>

#include "kg/kg_generator.h"

namespace saga::kg {
namespace {

KgGeneratorConfig SmallConfig(uint64_t seed = 42) {
  KgGeneratorConfig config;
  config.seed = seed;
  config.num_persons = 200;
  config.num_movies = 60;
  config.num_songs = 40;
  config.num_teams = 10;
  config.num_bands = 12;
  config.num_cities = 20;
  return config;
}

TEST(KgGeneratorTest, DeterministicForSameSeed) {
  GeneratedKg a = GenerateKg(SmallConfig(7));
  GeneratedKg b = GenerateKg(SmallConfig(7));
  EXPECT_EQ(a.kg.num_entities(), b.kg.num_entities());
  EXPECT_EQ(a.kg.num_triples(), b.kg.num_triples());
  EXPECT_EQ(a.withheld_facts.size(), b.withheld_facts.size());
  EXPECT_EQ(a.kg.catalog().name(EntityId(5)),
            b.kg.catalog().name(EntityId(5)));
}

TEST(KgGeneratorTest, ProducesRequestedScale) {
  GeneratedKg gen = GenerateKg(SmallConfig());
  // persons + movies + songs + teams + bands + cities + countries +
  // universities + occupations + genres.
  EXPECT_GT(gen.kg.num_entities(), 300u);
  EXPECT_GT(gen.kg.num_triples(), 1000u);
}

TEST(KgGeneratorTest, EveryPersonHasBirthplaceAndOccupation) {
  GeneratedKg gen = GenerateKg(SmallConfig());
  const SchemaHandles& h = gen.schema;
  size_t persons = 0;
  for (const auto& rec : gen.kg.catalog().records()) {
    if (!gen.kg.catalog().HasType(rec.id, h.person)) continue;
    ++persons;
    EXPECT_FALSE(gen.kg.ObjectsOf(rec.id, h.born_in).empty())
        << rec.canonical_name;
    EXPECT_FALSE(gen.kg.ObjectsOf(rec.id, h.occupation).empty())
        << rec.canonical_name;
  }
  EXPECT_EQ(persons, 200u);
}

TEST(KgGeneratorTest, WithheldFactsAreAbsentFromKg) {
  GeneratedKg gen = GenerateKg(SmallConfig());
  ASSERT_FALSE(gen.withheld_facts.empty());
  for (const auto& f : gen.withheld_facts) {
    EXPECT_FALSE(f.in_kg);
    EXPECT_TRUE(
        gen.kg.triples().BySubjectPredicate(f.subject, f.predicate).empty())
        << "withheld fact leaked into the KG";
  }
}

TEST(KgGeneratorTest, StaleFactsDifferFromFreshValues) {
  GeneratedKg gen = GenerateKg(SmallConfig());
  ASSERT_FALSE(gen.stale_facts.empty());
  for (const auto& s : gen.stale_facts) {
    const Triple& t = gen.kg.triples().triple(s.triple);
    EXPECT_NE(t.object, s.fresh_value);
    // Stale facts carry the old timestamp marker.
    EXPECT_EQ(t.provenance.timestamp, 1);
  }
}

TEST(KgGeneratorTest, AmbiguousGroupsShareNames) {
  KgGeneratorConfig config = SmallConfig();
  config.ambiguous_name_fraction = 0.15;
  GeneratedKg gen = GenerateKg(config);
  ASSERT_FALSE(gen.ambiguous_groups.empty());
  for (const auto& group : gen.ambiguous_groups) {
    ASSERT_GE(group.size(), 2u);
    const std::string& name = gen.kg.catalog().name(group[0]);
    for (EntityId e : group) {
      EXPECT_EQ(gen.kg.catalog().name(e), name);
    }
    // And the alias table exposes the collision.
    EXPECT_GE(gen.kg.catalog().LookupAlias(name).size(), group.size());
  }
}

TEST(KgGeneratorTest, ZeroAmbiguityConfigYieldsFewCollisions) {
  KgGeneratorConfig config = SmallConfig();
  config.ambiguous_name_fraction = 0.0;
  GeneratedKg gen = GenerateKg(config);
  // Random first+last collisions can still happen, but rarely.
  EXPECT_LT(gen.ambiguous_groups.size(), 15u);
}

TEST(KgGeneratorTest, NoiseTriplesComeFromLowQualitySource) {
  GeneratedKg gen = GenerateKg(SmallConfig());
  ASSERT_FALSE(gen.noise_triples.empty());
  // The generator's one source below 0.5 quality.
  const auto noisy = gen.kg.FindSource("web_crawl_legacy");
  ASSERT_TRUE(noisy.ok());
  for (TripleIdx idx : gen.noise_triples) {
    const Triple& t = gen.kg.triples().triple(idx);
    EXPECT_EQ(t.provenance.source, *noisy);
    EXPECT_LT(t.provenance.confidence, 0.5);
  }
}

TEST(KgGeneratorTest, PopularityIsSkewed) {
  GeneratedKg gen = GenerateKg(SmallConfig());
  std::vector<double> pops;
  for (const auto& rec : gen.kg.catalog().records()) {
    if (gen.kg.catalog().HasType(rec.id, gen.schema.person)) {
      pops.push_back(rec.popularity);
    }
  }
  std::sort(pops.begin(), pops.end(), std::greater<>());
  // Head should dominate tail.
  EXPECT_GT(pops.front(), 5 * pops.back());
}

TEST(KgGeneratorTest, LiteralPredicatesAreNotEmbeddingRelevant) {
  GeneratedKg gen = GenerateKg(SmallConfig());
  const Ontology& on = gen.kg.ontology();
  EXPECT_FALSE(on.predicate(gen.schema.date_of_birth).embedding_relevant);
  EXPECT_FALSE(on.predicate(gen.schema.follower_count).embedding_relevant);
  EXPECT_FALSE(on.predicate(gen.schema.library_id).embedding_relevant);
  EXPECT_TRUE(on.predicate(gen.schema.acted_in).embedding_relevant);
  EXPECT_TRUE(on.predicate(gen.schema.spouse).embedding_relevant);
}

TEST(KgGeneratorTest, FunctionalFactsCoverAllPersons) {
  GeneratedKg gen = GenerateKg(SmallConfig());
  std::set<uint64_t> dob_subjects;
  for (const auto& f : gen.functional_facts) {
    if (f.predicate == gen.schema.date_of_birth) {
      dob_subjects.insert(f.subject.value());
    }
  }
  EXPECT_EQ(dob_subjects.size(), 200u);
}

class GeneratorScaleTest : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorScaleTest, ScalesWithoutInvariantViolations) {
  KgGeneratorConfig config = SmallConfig();
  config.num_persons = GetParam();
  GeneratedKg gen = GenerateKg(config);
  // Entity ids are dense.
  EXPECT_EQ(gen.kg.catalog().records().back().id.value(),
            gen.kg.num_entities() - 1);
  // Every triple references valid entities/predicates.
  gen.kg.triples().ForEach([&](TripleIdx, const Triple& t) {
    EXPECT_LT(t.subject.value(), gen.kg.num_entities());
    EXPECT_LT(t.predicate.value(), gen.kg.ontology().num_predicates());
    if (t.object.is_entity()) {
      EXPECT_LT(t.object.entity().value(), gen.kg.num_entities());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeneratorScaleTest,
                         ::testing::Values(10, 100, 500));

}  // namespace
}  // namespace saga::kg
