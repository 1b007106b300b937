// End-to-end platform test (Figure 1): grow a KG from generation
// through embedding training, serving, web annotation, and ODKE
// enrichment, asserting the cross-module contracts hold.

#include <gtest/gtest.h>

#include "annotation/annotator.h"
#include "annotation/web_linker.h"
#include "common/file_util.h"
#include "common/hash.h"
#include "common/request_context.h"
#include "embedding/embedding_store.h"
#include "embedding/evaluator.h"
#include "embedding/trainer.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"
#include "odke/corroborator.h"
#include "odke/pipeline.h"
#include "odke/profiler.h"
#include "serving/embedding_service.h"
#include "serving/fact_verifier.h"
#include "serving/kv_cache.h"
#include "serving/related_entities.h"
#include "websim/corpus_generator.h"
#include "websim/search_engine.h"

namespace saga {
namespace {

TEST(PlatformIntegrationTest, FullPipelineGrowsAndServesTheKg) {
  // ---- Stage 0: open-domain KG (substrate) ----
  kg::KgGeneratorConfig config;
  config.num_persons = 100;
  config.num_movies = 30;
  config.num_songs = 20;
  config.num_teams = 6;
  config.num_bands = 8;
  config.num_cities = 12;
  config.withheld_fact_fraction = 0.2;
  kg::GeneratedKg gen = kg::GenerateKg(config);
  const size_t initial_triples = gen.kg.num_triples();

  // ---- Stage 1: graph engine view + embedding training (Fig 3) ----
  graph_engine::ViewDefinition def;
  def.min_confidence = 0.4;  // drop crawl noise
  auto view = graph_engine::GraphView::Build(gen.kg, def);
  ASSERT_GT(view.edges().size(), 500u);

  embedding::TrainingConfig tc;
  tc.model = embedding::ModelKind::kDistMult;
  tc.dim = 24;
  tc.epochs = 10;
  tc.holdout_fraction = 0.08;
  embedding::InMemoryTrainer trainer(tc);
  const auto emb = trainer.Train(view);
  Rng rng(1);
  const double auc =
      embedding::EvaluateVerificationAuc(emb, view, emb.holdout_edges, &rng);
  EXPECT_GT(auc, 0.7);

  // ---- Stage 2: embedding service + related entities (Fig 2) ----
  serving::EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(emb, view), &gen.kg);
  serving::RelatedEntitiesService related(&gen.kg, &view, &service);
  const kg::EntityId probe = view.global_entity(0);
  auto related_hits = related.Related(probe, 5, kg::TypeId::Invalid(),
                                      RequestContext());
  ASSERT_TRUE(related_hits.ok());
  EXPECT_FALSE(related_hits->empty());

  // ---- Stage 3: semantic annotation over the (synthetic) Web ----
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 30;
  cc.num_noise_pages = 10;
  websim::WebCorpus corpus = websim::GenerateCorpus(gen, cc);

  auto cache_dir = MakeTempDir("saga_integration_cache");
  ASSERT_TRUE(cache_dir.ok());
  auto cache = serving::EmbeddingKvCache::Open(*cache_dir, 1 << 18);
  ASSERT_TRUE(cache.ok());

  annotation::Annotator annotator(&gen.kg, cache->get());
  ASSERT_TRUE(
      annotator.reranker().PrecomputeProfiles(cache->get()).ok());
  annotation::IncrementalWebLinker linker(&annotator, &gen.kg);
  const auto pass = linker.AnnotateCorpus(corpus);
  EXPECT_EQ(pass.docs_annotated, corpus.size());
  EXPECT_GT(pass.annotations, 1000u);
  const size_t after_linking = gen.kg.num_triples();
  EXPECT_GT(after_linking, initial_triples)
      << "linking the Web must add entity->document edges";

  // ---- Stage 4: ODKE fills coverage gaps found by profiling ----
  websim::SearchEngine search(&corpus);
  odke::KgProfiler profiler(&gen.kg);
  auto gaps = profiler.FindCoverageGaps();
  ASSERT_FALSE(gaps.empty());
  // Keep DOB gaps, capped for test speed.
  std::vector<odke::FactGap> dob_gaps;
  for (const auto& g : gaps) {
    if (g.predicate == gen.schema.date_of_birth && dob_gaps.size() < 12) {
      dob_gaps.push_back(g);
    }
  }
  ASSERT_FALSE(dob_gaps.empty());

  odke::CorroborationModel model;
  odke::OdkePipeline pipeline(&gen.kg, &corpus, &search, &linker.index(),
                              &model);
  const auto stats = pipeline.Run(dob_gaps);
  EXPECT_GT(stats.gaps_filled, 0u);
  EXPECT_EQ(gen.kg.num_triples(), after_linking + stats.gaps_filled);

  // Filled facts match ground truth most of the time.
  std::unordered_map<uint64_t, kg::Value> truth;
  for (const auto& f : gen.functional_facts) {
    truth.emplace(HashCombine(f.subject.value(), f.predicate.value()),
                  f.object);
  }
  size_t correct = 0;
  size_t filled = 0;
  for (const auto& gap : dob_gaps) {
    const auto objs = gen.kg.ObjectsOf(gap.subject, gap.predicate);
    if (objs.empty()) continue;
    ++filled;
    const auto it =
        truth.find(HashCombine(gap.subject.value(), gap.predicate.value()));
    ASSERT_NE(it, truth.end());
    if (objs[0] == it->second) ++correct;
  }
  ASSERT_GT(filled, 0u);
  EXPECT_GE(static_cast<double>(correct) / filled, 0.7);

  // ---- Stage 5: fact verification serves the grown KG (Fig 2) ----
  serving::FactVerifier verifier(&view, &emb);
  embedding::NegativeSampler sampler(view);
  std::vector<graph_engine::ViewEdge> pos(view.edges().begin(),
                                          view.edges().begin() + 100);
  std::vector<graph_engine::ViewEdge> neg;
  bool tail = true;
  for (const auto& e : pos) {
    neg.push_back(sampler.Corrupt(e, tail, &rng));
    tail = !tail;
  }
  verifier.Calibrate(pos, neg);
  const auto& edge = view.edges()[200];
  const auto verdict = verifier.Verify(view.global_entity(edge.src),
                                       view.global_relation(edge.relation),
                                       view.global_entity(edge.dst));
  EXPECT_TRUE(verdict.scorable);

  (void)RemoveDirRecursively(*cache_dir);
}

TEST(PlatformIntegrationTest, SnapshotRoundTripAfterGrowth) {
  kg::KgGeneratorConfig config;
  config.num_persons = 60;
  config.num_movies = 15;
  config.num_songs = 10;
  config.num_teams = 4;
  config.num_bands = 5;
  config.num_cities = 8;
  kg::GeneratedKg gen = kg::GenerateKg(config);

  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 10;
  cc.num_noise_pages = 5;
  websim::WebCorpus corpus = websim::GenerateCorpus(gen, cc);
  annotation::Annotator annotator(&gen.kg, nullptr);
  annotation::IncrementalWebLinker linker(&annotator, &gen.kg);
  (void)linker.AnnotateCorpus(corpus);

  auto dir = MakeTempDir("saga_integration_snap");
  ASSERT_TRUE(dir.ok());
  const std::string path = JoinPath(*dir, "grown.kg");
  ASSERT_TRUE(gen.kg.Save(path).ok());
  auto loaded = kg::KnowledgeGraph::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_triples(), gen.kg.num_triples());
  EXPECT_EQ(loaded->num_entities(), gen.kg.num_entities());
  // The mentioned_in predicate survived the round trip.
  EXPECT_TRUE(loaded->ontology().FindPredicate("mentioned_in").ok());
  (void)RemoveDirRecursively(*dir);
}

}  // namespace
}  // namespace saga
