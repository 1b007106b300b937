// F1: the end-to-end platform of Figure 1 — KG construction ->
// embedding training -> embedding service -> semantic annotation of the
// Web -> ODKE enrichment, with per-stage wall time and KG growth.

#include <cstdio>

#include "annotation/annotator.h"
#include "annotation/web_linker.h"
#include "bench_util.h"
#include "common/file_util.h"
#include "common/hash.h"
#include "common/metrics.h"
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
#include "serving/kv_cache.h"
#include "serving/related_entities.h"
#include "websim/corpus_generator.h"
#include "websim/search_engine.h"

int main() {
  saga::bench::ObsSession obs_session;
  using namespace saga;
  using bench::Fmt;
  using bench::Table;

  std::printf("F1: end-to-end Saga-extensions platform (paper Figure 1)\n\n");
  Table stages({"stage", "wall s", "output"});
  Stopwatch total;

  // Stage 1: KG construction.
  Stopwatch sw;
  kg::KgGeneratorConfig config;
  config.num_persons = 600;
  config.num_movies = 150;
  config.num_songs = 100;
  config.num_teams = 16;
  config.num_bands = 24;
  config.num_cities = 36;
  kg::GeneratedKg gen = kg::GenerateKg(config);
  const size_t initial_triples = gen.kg.num_triples();
  stages.AddRow({"KG construction", Fmt(sw.ElapsedSeconds(), 2),
                 std::to_string(gen.kg.num_entities()) + " entities, " +
                     std::to_string(initial_triples) + " triples"});

  // Stage 2: graph engine view + embedding training.
  sw.Reset();
  graph_engine::ViewDefinition def;
  def.min_confidence = 0.4;
  auto view = graph_engine::GraphView::Build(gen.kg, def);
  embedding::TrainingConfig tc;
  tc.model = embedding::ModelKind::kDistMult;
  tc.dim = 32;
  tc.epochs = 6;
  tc.holdout_fraction = 0.05;
  embedding::InMemoryTrainer trainer(tc);
  auto emb = trainer.Train(view);
  Rng rng(1);
  const double auc =
      embedding::EvaluateVerificationAuc(emb, view, emb.holdout_edges, &rng);
  stages.AddRow({"embedding training", Fmt(sw.ElapsedSeconds(), 2),
                 std::to_string(view.edges().size()) + " edges, AUC " +
                     Fmt(auc, 3)});

  // Stage 3: embedding service + precomputed profile cache.
  sw.Reset();
  serving::EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(emb, view), &gen.kg);
  auto cache_dir = MakeTempDir("bench_platform_cache");
  auto cache = serving::EmbeddingKvCache::Open(*cache_dir, 4 << 20);
  annotation::Annotator annotator(&gen.kg, cache->get());
  (void)annotator.reranker().PrecomputeProfiles(cache->get());
  stages.AddRow({"embedding service + profile cache",
                 Fmt(sw.ElapsedSeconds(), 2),
                 std::to_string(service.store().size()) + " vectors"});

  // Stage 4: link the Web.
  sw.Reset();
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 150;
  cc.num_noise_pages = 60;
  websim::WebCorpus corpus = websim::GenerateCorpus(gen, cc);
  annotation::IncrementalWebLinker linker(&annotator, &gen.kg);
  const auto pass = linker.AnnotateCorpus(corpus);
  const size_t after_linking = gen.kg.num_triples();
  stages.AddRow(
      {"semantic annotation (link the Web)", Fmt(sw.ElapsedSeconds(), 2),
       std::to_string(pass.annotations) + " annotations, +" +
           std::to_string(after_linking - initial_triples) + " edges"});

  // Stage 5: ODKE enrichment.
  sw.Reset();
  websim::SearchEngine search(&corpus);
  odke::KgProfiler::Options popts;
  popts.literal_predicates_only = true;  // what the extractors harvest
  odke::KgProfiler profiler(&gen.kg, popts);
  auto gaps = profiler.FindCoverageGaps();
  if (gaps.size() > 150) gaps.resize(150);
  odke::CorroborationModel model;
  odke::OdkePipeline pipeline(&gen.kg, &corpus, &search, &linker.index(),
                              &model);
  const auto odke_stats = pipeline.Run(gaps);
  stages.AddRow({"ODKE enrichment", Fmt(sw.ElapsedSeconds(), 2),
                 std::to_string(odke_stats.gaps_filled) + "/" +
                     std::to_string(odke_stats.gaps_processed) +
                     " gaps filled"});

  // Stage 6: serve a query on the grown graph.
  sw.Reset();
  serving::RelatedEntitiesService related(&gen.kg, &view, &service);
  auto hits = related.Related(view.global_entity(5), 5, kg::TypeId::Invalid(),
                              RequestContext());
  stages.AddRow({"serving (related entities)", Fmt(sw.ElapsedSeconds(), 3),
                 hits.ok() ? std::to_string(hits->size()) + " results"
                           : hits.status().ToString()});

  stages.Print();

  // Accuracy of ODKE-added facts vs ground truth.
  std::unordered_map<uint64_t, kg::Value> truth;
  for (const auto& f : gen.functional_facts) {
    truth.emplace(HashCombine(f.subject.value(), f.predicate.value()),
                  f.object);
  }
  const auto odke_source = gen.kg.FindSource("odke");
  size_t odke_facts = 0;
  size_t odke_correct = 0;
  gen.kg.triples().ForEach([&](kg::TripleIdx, const kg::Triple& t) {
    if (!odke_source.ok() || !(t.provenance.source == *odke_source)) return;
    ++odke_facts;
    auto it = truth.find(HashCombine(t.subject.value(), t.predicate.value()));
    if (it != truth.end() && t.object == it->second) ++odke_correct;
  });
  std::printf("KG growth: %zu -> %zu triples (+%.1f%%); ODKE fact accuracy "
              "%.3f (%zu facts)\n",
              initial_triples, gen.kg.num_triples(),
              100.0 * (gen.kg.num_triples() - initial_triples) /
                  initial_triples,
              odke_facts == 0
                  ? 0.0
                  : static_cast<double>(odke_correct) / odke_facts,
              odke_facts);
  std::printf("total wall time: %.2fs\n", total.ElapsedSeconds());
  (void)RemoveDirRecursively(*cache_dir);
  return 0;
}
