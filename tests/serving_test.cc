#include <gtest/gtest.h>

#include <set>

#include "common/file_util.h"
#include "common/request_context.h"
#include "embedding/trainer.h"
#include "graph_engine/traversal.h"
#include "kg/kg_generator.h"
#include "serving/embedding_service.h"
#include "serving/fact_ranker.h"
#include "serving/fact_verifier.h"
#include "serving/kv_cache.h"
#include "serving/lru_cache.h"
#include "serving/related_entities.h"

namespace saga::serving {
namespace {

struct Fixture {
  kg::GeneratedKg gen;
  graph_engine::GraphView view;
  embedding::TrainedEmbeddings emb;

  static Fixture Make() {
    kg::KgGeneratorConfig config;
    config.num_persons = 120;
    config.num_movies = 40;
    config.num_songs = 20;
    config.num_teams = 6;
    config.num_bands = 8;
    config.num_cities = 12;
    Fixture f{kg::GenerateKg(config), {}, {}};
    f.view =
        graph_engine::GraphView::Build(f.gen.kg,
                                       graph_engine::ViewDefinition());
    embedding::TrainingConfig tc;
    tc.model = embedding::ModelKind::kDistMult;
    tc.dim = 16;
    tc.epochs = 5;
    embedding::InMemoryTrainer trainer(tc);
    f.emb = trainer.Train(f.view);
    return f;
  }
};

// ---------- LruCache ----------

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(50);
  cache.Put("a", std::string(20, 'x'));
  cache.Put("b", std::string(20, 'y'));
  ASSERT_TRUE(cache.Get("a").has_value());  // touch a -> b becomes LRU
  cache.Put("c", std::string(20, 'z'));     // evicts b
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
}

TEST(LruCacheTest, OverwriteUpdatesBytes) {
  LruCache cache(1000);
  cache.Put("k", std::string(100, 'a'));
  const size_t big = cache.size_bytes();
  cache.Put("k", "tiny");
  EXPECT_LT(cache.size_bytes(), big);
  EXPECT_EQ(*cache.Get("k"), "tiny");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, TracksHitsAndMisses) {
  LruCache cache(100);
  cache.Put("k", "v");
  (void)cache.Get("k");
  (void)cache.Get("absent");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, RejectsOversizedInsertUpFront) {
  LruCache cache(50);
  ASSERT_TRUE(cache.Put("a", std::string(20, 'x')));
  ASSERT_TRUE(cache.Put("b", std::string(20, 'y')));
  // An entry that can never fit is refused without evicting anything.
  EXPECT_FALSE(cache.Put("huge", std::string(60, 'z')));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_TRUE(cache.Contains("b"));
  EXPECT_FALSE(cache.Contains("huge"));
  EXPECT_EQ(cache.size_bytes(), 42u);  // 2 * (1 + 20)
}

TEST(LruCacheTest, OversizedUpdateOfExistingKeyIsRejected) {
  LruCache cache(50);
  ASSERT_TRUE(cache.Put("k", std::string(10, 'a')));
  const size_t before = cache.size_bytes();
  EXPECT_FALSE(cache.Put("k", std::string(60, 'b')));
  // The old entry survives untouched.
  EXPECT_EQ(cache.size_bytes(), before);
  EXPECT_EQ(*cache.Get("k"), std::string(10, 'a'));
}

TEST(LruCacheTest, EvictionSparesTheJustUpdatedEntry) {
  LruCache cache(50);
  ASSERT_TRUE(cache.Put("a", std::string(20, 'x')));
  ASSERT_TRUE(cache.Put("b", std::string(20, 'y')));  // 42 bytes total
  // Growing b to 40 bytes pushes the total to 62: eviction must take
  // the cold entry (a), never the entry this Put just touched.
  ASSERT_TRUE(cache.Put("b", std::string(40, 'Y')));
  EXPECT_FALSE(cache.Contains("a"));
  ASSERT_TRUE(cache.Contains("b"));
  EXPECT_EQ(*cache.Get("b"), std::string(40, 'Y'));
  EXPECT_EQ(cache.size_bytes(), 41u);  // 1 + 40
}

// ---------- EmbeddingKvCache ----------

TEST(EmbeddingKvCacheTest, PutAllThenGetThroughTiers) {
  auto dir = MakeTempDir("saga_kv_cache");
  ASSERT_TRUE(dir.ok());
  Fixture f = Fixture::Make();
  const embedding::EmbeddingStore store =
      embedding::EmbeddingStore::FromTrained(f.emb, f.view);

  auto cache = EmbeddingKvCache::Open(*dir, 1 << 16);
  ASSERT_TRUE(cache.ok());
  ASSERT_TRUE((*cache)->PutAll(store).ok());

  const kg::EntityId id = f.view.global_entity(3);
  auto first = (*cache)->Get(id);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, *store.Get(id));
  EXPECT_EQ((*cache)->stats().disk_hits, 1u);
  auto second = (*cache)->Get(id);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*cache)->stats().memory_hits, 1u);

  EXPECT_FALSE((*cache)->Get(kg::EntityId(10101010)).ok());
  EXPECT_EQ((*cache)->stats().misses, 1u);
  (void)RemoveDirRecursively(*dir);
}

// Regression: Put used to write through to disk without touching the
// LRU, so an entity read once kept serving its old embedding forever.
TEST(EmbeddingKvCacheTest, PutRefreshesResidentLruEntry) {
  auto dir = MakeTempDir("saga_kv_cache_stale");
  ASSERT_TRUE(dir.ok());
  auto cache = EmbeddingKvCache::Open(*dir, 1 << 16);
  ASSERT_TRUE(cache.ok());

  const kg::EntityId id(42);
  const std::vector<float> v1 = {1.0f, 2.0f, 3.0f};
  const std::vector<float> v2 = {9.0f, 8.0f, 7.0f};
  ASSERT_TRUE((*cache)->Put(id, v1).ok());
  auto first = (*cache)->Get(id);  // disk hit; v1 now LRU-resident
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, v1);

  ASSERT_TRUE((*cache)->Put(id, v2).ok());
  auto second = (*cache)->Get(id);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, v2) << "LRU served a stale embedding after Put";
  // Served from memory: the refresh updated the entry in place rather
  // than invalidating it.
  EXPECT_EQ((*cache)->stats().memory_hits, 1u);
  (void)RemoveDirRecursively(*dir);
}

// ---------- EmbeddingService ----------

TEST(EmbeddingServiceTest, SimilarityAndNeighbors) {
  Fixture f = Fixture::Make();
  EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(f.emb, f.view), &f.gen.kg);
  const kg::EntityId a = f.view.global_entity(0);
  const kg::EntityId b = f.view.global_entity(1);
  auto sim = service.Similarity(a, b);
  ASSERT_TRUE(sim.ok());
  EXPECT_GE(*sim, -1.0 - 1e-9);
  EXPECT_LE(*sim, 1.0 + 1e-9);
  auto self_sim = service.Similarity(a, a);
  ASSERT_TRUE(self_sim.ok());
  EXPECT_NEAR(*self_sim, 1.0, 1e-6);

  auto nbrs =
      service.TopKNeighbors(a, 5, kg::TypeId::Invalid(), RequestContext());
  ASSERT_TRUE(nbrs.ok());
  EXPECT_EQ(nbrs->size(), 5u);
  for (const auto& [e, s] : *nbrs) {
    EXPECT_NE(e, a);
  }
  EXPECT_FALSE(service.GetEmbedding(kg::EntityId(999999)).ok());
}

TEST(EmbeddingServiceTest, TypeFilterRestrictsHits) {
  Fixture f = Fixture::Make();
  EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(f.emb, f.view), &f.gen.kg);
  // Query a person, restrict results to persons.
  kg::EntityId person;
  for (const auto& rec : f.gen.kg.catalog().records()) {
    if (f.gen.kg.catalog().HasType(rec.id, f.gen.schema.person) &&
        f.view.local_entity(rec.id) != graph_engine::GraphView::kNotInView) {
      person = rec.id;
      break;
    }
  }
  ASSERT_TRUE(person.valid());
  auto hits = service.TopKNeighbors(person, 8, f.gen.schema.person,
                                    RequestContext());
  ASSERT_TRUE(hits.ok());
  EXPECT_FALSE(hits->empty());
  for (const auto& [e, s] : *hits) {
    bool is_person = false;
    for (kg::TypeId t : f.gen.kg.catalog().record(e).types) {
      if (f.gen.kg.ontology().IsSubtypeOf(t, f.gen.schema.person)) {
        is_person = true;
      }
    }
    EXPECT_TRUE(is_person);
  }
}

TEST(EmbeddingServiceTest, IvfIndexServesQueries) {
  Fixture f = Fixture::Make();
  EmbeddingService::Options opts;
  opts.index = EmbeddingService::IndexKind::kIvf;
  opts.ivf_lists = 16;
  opts.ivf_nprobe = 16;  // exact
  EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(f.emb, f.view), &f.gen.kg,
      opts);
  const kg::EntityId a = f.view.global_entity(2);
  auto nbrs =
      service.TopKNeighbors(a, 3, kg::TypeId::Invalid(), RequestContext());
  ASSERT_TRUE(nbrs.ok());
  EXPECT_EQ(nbrs->size(), 3u);
}

// ---------- FactRanker ----------

TEST(FactRankerTest, RanksMultiValuedFacts) {
  Fixture f = Fixture::Make();
  FactRanker ranker(&f.gen.kg, &f.view, &f.emb);
  // Find a person with multiple occupations.
  kg::EntityId subject;
  for (const auto& rec : f.gen.kg.catalog().records()) {
    if (f.gen.kg.ObjectsOf(rec.id, f.gen.schema.occupation).size() >= 2) {
      subject = rec.id;
      break;
    }
  }
  ASSERT_TRUE(subject.valid());
  const auto ranked = ranker.Rank(subject, f.gen.schema.occupation);
  ASSERT_GE(ranked.size(), 2u);
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].score, ranked[i].score);
  }
}

TEST(FactRankerTest, PopularityOnlyModeOrdersByPopularity) {
  Fixture f = Fixture::Make();
  FactRanker::Options opts;
  opts.embedding_weight = 0.0;
  opts.popularity_weight = 1.0;
  FactRanker ranker(&f.gen.kg, &f.view, &f.emb, opts);
  kg::EntityId subject;
  for (const auto& rec : f.gen.kg.catalog().records()) {
    if (f.gen.kg.ObjectsOf(rec.id, f.gen.schema.occupation).size() >= 3) {
      subject = rec.id;
      break;
    }
  }
  ASSERT_TRUE(subject.valid());
  const auto ranked = ranker.Rank(subject, f.gen.schema.occupation);
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].popularity, ranked[i].popularity);
  }
}

TEST(FactRankerTest, EmptyForUnknownPredicate) {
  Fixture f = Fixture::Make();
  FactRanker ranker(&f.gen.kg, &f.view, &f.emb);
  const auto ranked =
      ranker.Rank(kg::EntityId(0), f.gen.schema.plays_for);
  // Entity 0 is a country; it has no plays_for facts.
  EXPECT_TRUE(ranked.empty() || !ranked.empty());  // must not crash
}

// ---------- FactVerifier ----------

TEST(FactVerifierTest, CalibratedThresholdSeparates) {
  Fixture f = Fixture::Make();
  FactVerifier verifier(&f.view, &f.emb);
  // Positives: true edges; negatives: corrupted.
  embedding::NegativeSampler sampler(f.view, true);
  Rng rng(3);
  std::vector<graph_engine::ViewEdge> pos(f.view.edges().begin(),
                                          f.view.edges().begin() + 200);
  std::vector<graph_engine::ViewEdge> neg;
  bool tail = true;
  for (const auto& e : pos) {
    neg.push_back(sampler.Corrupt(e, tail, &rng));
    tail = !tail;
  }
  verifier.Calibrate(pos, neg);

  // On fresh pairs, accuracy should beat chance clearly.
  int correct = 0;
  int total = 0;
  for (size_t i = 200; i < std::min<size_t>(400, f.view.edges().size());
       ++i) {
    const auto& e = f.view.edges()[i];
    const auto v = verifier.Verify(f.view.global_entity(e.src),
                                   f.view.global_relation(e.relation),
                                   f.view.global_entity(e.dst));
    ASSERT_TRUE(v.scorable);
    if (v.plausible) ++correct;
    ++total;
    const auto corrupted = sampler.Corrupt(e, tail, &rng);
    tail = !tail;
    const auto nv = verifier.Verify(f.view.global_entity(corrupted.src),
                                    f.view.global_relation(corrupted.relation),
                                    f.view.global_entity(corrupted.dst));
    if (nv.scorable && !nv.plausible) ++correct;
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.65);
}

TEST(FactVerifierTest, UnscorableOutsideView) {
  Fixture f = Fixture::Make();
  FactVerifier verifier(&f.view, &f.emb);
  const auto v = verifier.Verify(kg::EntityId(999999),
                                 f.gen.schema.spouse, kg::EntityId(0));
  EXPECT_FALSE(v.scorable);
}

// ---------- RelatedEntities ----------

TEST(RelatedEntitiesTest, AllModesReturnResults) {
  Fixture f = Fixture::Make();
  EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(f.emb, f.view), &f.gen.kg);
  const kg::EntityId query = f.view.global_entity(0);
  for (auto mode : {RelatedEntitiesService::Mode::kEmbedding,
                    RelatedEntitiesService::Mode::kPpr,
                    RelatedEntitiesService::Mode::kBlend}) {
    RelatedEntitiesService::Options opts;
    opts.mode = mode;
    RelatedEntitiesService related(&f.gen.kg, &f.view, &service, opts);
    auto hits =
        related.Related(query, 5, kg::TypeId::Invalid(), RequestContext());
    ASSERT_TRUE(hits.ok());
    EXPECT_FALSE(hits->empty());
    for (const auto& [e, s] : *hits) {
      EXPECT_NE(e, query);
    }
  }
}

TEST(RelatedEntitiesTest, ExcludeDirectNeighborsWorks) {
  Fixture f = Fixture::Make();
  EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(f.emb, f.view), &f.gen.kg);
  RelatedEntitiesService::Options opts;
  opts.mode = RelatedEntitiesService::Mode::kPpr;
  opts.exclude_direct_neighbors = true;
  RelatedEntitiesService related(&f.gen.kg, &f.view, &service, opts);
  const kg::EntityId query = f.view.global_entity(0);
  auto hits =
      related.Related(query, 8, kg::TypeId::Invalid(), RequestContext());
  ASSERT_TRUE(hits.ok());
  const auto nbrs = f.gen.kg.Neighbors(query);
  const std::set<kg::EntityId> nbr_set(nbrs.begin(), nbrs.end());
  for (const auto& [e, s] : *hits) {
    EXPECT_EQ(nbr_set.count(e), 0u);
  }
}

TEST(RelatedEntitiesTest, PprModeSurfacesGraphNeighborhood) {
  Fixture f = Fixture::Make();
  EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(f.emb, f.view), &f.gen.kg);
  RelatedEntitiesService::Options opts;
  opts.mode = RelatedEntitiesService::Mode::kPpr;
  RelatedEntitiesService related(&f.gen.kg, &f.view, &service, opts);
  // A well-connected person.
  kg::EntityId query;
  for (const auto& rec : f.gen.kg.catalog().records()) {
    if (f.gen.kg.Neighbors(rec.id).size() >= 4 &&
        f.view.local_entity(rec.id) != graph_engine::GraphView::kNotInView) {
      query = rec.id;
      break;
    }
  }
  ASSERT_TRUE(query.valid());
  auto hits =
      related.Related(query, 10, kg::TypeId::Invalid(), RequestContext());
  ASSERT_TRUE(hits.ok());
  // Top PPR hits should be within 2 hops.
  const auto two_hop = graph_engine::KHopNeighbors(f.gen.kg, query, 2);
  size_t within = 0;
  for (const auto& [e, s] : *hits) {
    if (two_hop.count(e)) ++within;
  }
  EXPECT_GT(within, hits->size() / 2);
}

}  // namespace
}  // namespace saga::serving
