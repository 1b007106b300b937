// F2: the four KG-embedding applications of Figure 2 — fact ranking,
// fact verification, related entities, entity linking — each measured
// against ground truth with the relevant baselines/ablations.

#include <algorithm>
#include <cstdio>
#include <set>

#include "annotation/annotator.h"
#include "bench_util.h"
#include "common/metrics.h"
#include "common/request_context.h"
#include "embedding/embedding_store.h"
#include "embedding/evaluator.h"
#include "embedding/trainer.h"
#include "graph_engine/sampler.h"
#include "graph_engine/traversal.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"
#include "serving/embedding_service.h"
#include "serving/fact_ranker.h"
#include "serving/fact_verifier.h"
#include "serving/related_entities.h"
#include "websim/corpus_generator.h"

namespace saga {
namespace {

using bench::Fmt;
using bench::Section;
using bench::Table;

struct Env {
  kg::GeneratedKg gen;
  graph_engine::GraphView view;
};

Env MakeEnv() {
  kg::KgGeneratorConfig config;
  config.num_persons = 800;
  config.num_movies = 200;
  config.num_songs = 120;
  config.num_teams = 20;
  config.num_bands = 30;
  config.num_cities = 40;
  config.ambiguous_name_fraction = 0.1;
  Env env{kg::GenerateKg(config), {}};
  graph_engine::ViewDefinition def;
  def.min_confidence = 0.4;
  env.view = graph_engine::GraphView::Build(env.gen.kg, def);
  return env;
}

embedding::TrainedEmbeddings TrainModel(const Env& env,
                                        embedding::ModelKind kind,
                                        double holdout) {
  embedding::TrainingConfig tc;
  tc.model = kind;
  tc.dim = 32;
  tc.epochs = 8;
  tc.holdout_fraction = holdout;
  embedding::InMemoryTrainer trainer(tc);
  return trainer.Train(env.view);
}

// ---- F2b: fact verification ----
void BenchVerification(const Env& env) {
  Section("F2b: Fact verification (held-out AUC per model)");
  Table table({"model", "holdout AUC", "train s"});
  for (auto kind :
       {embedding::ModelKind::kTransE, embedding::ModelKind::kDistMult,
        embedding::ModelKind::kComplEx}) {
    Stopwatch sw;
    const auto emb = TrainModel(env, kind, 0.1);
    const double train_s = sw.ElapsedSeconds();
    Rng rng(1);
    const double auc = embedding::EvaluateVerificationAuc(
        emb, env.view, emb.holdout_edges, &rng);
    table.AddRow({std::string(embedding::ModelKindName(kind)), Fmt(auc),
                  Fmt(train_s, 2)});
  }
  table.Print();
}

// ---- F2a: fact ranking ----
void BenchFactRanking(const Env& env,
                      const embedding::TrainedEmbeddings& emb) {
  Section("F2a: Fact ranking (multi-valued occupations)");
  // Ground truth: the primary occupation is the one asserted by the
  // curated source with confidence 1.0 (extras come from feeds).
  const auto curated = env.gen.kg.FindSource("curated");
  struct Config {
    const char* name;
    double emb_w;
    double pop_w;
  };
  const Config configs[] = {{"popularity only", 0.0, 1.0},
                            {"embedding only", 1.0, 0.0},
                            {"blended", 1.0, 1.0}};
  Table table({"ranker", "MRR of primary occupation", "queries"});
  for (const auto& config : configs) {
    serving::FactRanker::Options opts;
    opts.embedding_weight = config.emb_w;
    opts.popularity_weight = config.pop_w;
    serving::FactRanker ranker(&env.gen.kg, &env.view, &emb, opts);
    double mrr_sum = 0.0;
    size_t queries = 0;
    for (const auto& rec : env.gen.kg.catalog().records()) {
      const auto facts = env.gen.kg.triples().BySubjectPredicate(
          rec.id, env.gen.schema.occupation);
      if (facts.size() < 2) continue;
      // Primary = curated-source occupation.
      kg::Value primary;
      bool has_primary = false;
      for (kg::TripleIdx idx : facts) {
        const auto& t = env.gen.kg.triples().triple(idx);
        if (curated.ok() && t.provenance.source == *curated) {
          primary = t.object;
          has_primary = true;
          break;
        }
      }
      if (!has_primary) continue;
      const auto ranked = ranker.Rank(rec.id, env.gen.schema.occupation);
      for (size_t pos = 0; pos < ranked.size(); ++pos) {
        if (ranked[pos].object == primary) {
          mrr_sum += 1.0 / static_cast<double>(pos + 1);
          break;
        }
      }
      ++queries;
    }
    table.AddRow({config.name, Fmt(mrr_sum / std::max<size_t>(1, queries)),
                  std::to_string(queries)});
  }
  table.Print();
}

// ---- F2c: related entities ----
void BenchRelatedEntities(const Env& env,
                          const embedding::TrainedEmbeddings& emb) {
  Section("F2c: Related entities (precision@5 vs 2-hop ground truth)");
  // Ground truth relatedness: entities within 2 hops.
  serving::EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(emb, env.view), &env.gen.kg);

  // Specialized related-entity embeddings (§2): trained on
  // pre-computed random-walk co-occurrence pairs from the graph
  // engine, not on raw triples.
  graph_engine::RandomWalkSampler::Options wopts;
  wopts.walks_per_node = 4;
  wopts.walk_length = 8;
  graph_engine::RandomWalkSampler sampler(wopts);
  Rng walk_rng(31);
  const auto walks = sampler.GenerateWalks(env.view, &walk_rng);
  const auto pairs = sampler.CoOccurrencePairs(walks);
  std::vector<graph_engine::ViewEdge> walk_edges;
  walk_edges.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    walk_edges.push_back(graph_engine::ViewEdge{a, 0, b});
  }
  embedding::TrainingConfig wtc;
  wtc.model = embedding::ModelKind::kDistMult;
  wtc.dim = 32;
  wtc.epochs = 2;
  embedding::InMemoryTrainer walk_trainer(wtc);
  const auto walk_emb = walk_trainer.TrainEdges(env.view, walk_edges);
  serving::EmbeddingService walk_service(
      embedding::EmbeddingStore::FromTrained(walk_emb, env.view),
      &env.gen.kg);

  struct ModeRow {
    const char* name;
    serving::RelatedEntitiesService::Mode mode;
    const serving::EmbeddingService* service;
  };
  const ModeRow modes[] = {
      {"triple-embedding kNN",
       serving::RelatedEntitiesService::Mode::kEmbedding, &service},
      {"walk-embedding kNN (specialized, §2)",
       serving::RelatedEntitiesService::Mode::kEmbedding, &walk_service},
      {"PPR (graph)", serving::RelatedEntitiesService::Mode::kPpr,
       &service},
      {"blend walk+PPR (RRF)",
       serving::RelatedEntitiesService::Mode::kBlend, &walk_service}};

  // Sample query entities with rich neighborhoods.
  std::vector<kg::EntityId> queries;
  for (const auto& rec : env.gen.kg.catalog().records()) {
    if (queries.size() >= 40) break;
    if (env.view.local_entity(rec.id) == graph_engine::GraphView::kNotInView)
      continue;
    if (env.gen.kg.Neighbors(rec.id).size() >= 4) queries.push_back(rec.id);
  }

  Table table({"engine", "precision@5", "avg latency ms"});
  const RequestContext ctx;
  for (const auto& mode : modes) {
    serving::RelatedEntitiesService::Options opts;
    opts.mode = mode.mode;
    serving::RelatedEntitiesService related(&env.gen.kg, &env.view,
                                            mode.service, opts);
    double precision_sum = 0.0;
    Histogram latency;
    for (kg::EntityId q : queries) {
      const auto two_hop = graph_engine::KHopNeighbors(env.gen.kg, q, 2);
      Stopwatch sw;
      auto hits = related.Related(q, 5, kg::TypeId::Invalid(), ctx);
      latency.Add(sw.ElapsedMillis());
      if (!hits.ok() || hits->empty()) continue;
      size_t relevant = 0;
      for (const auto& [e, score] : *hits) {
        if (two_hop.count(e)) ++relevant;
      }
      precision_sum +=
          static_cast<double>(relevant) / static_cast<double>(hits->size());
    }
    table.AddRow({mode.name,
                  Fmt(precision_sum / static_cast<double>(queries.size())),
                  Fmt(latency.Mean(), 3)});
  }
  table.Print();
}

// ---- F2d: entity linking ----
void BenchEntityLinking(const Env& env) {
  Section("F2d: Entity linking on ambiguous mentions (Michael-Jordan case)");
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 100;
  cc.num_noise_pages = 30;
  websim::WebCorpus corpus = websim::GenerateCorpus(env.gen, cc);

  std::set<uint64_t> ambiguous;
  for (const auto& group : env.gen.ambiguous_groups) {
    for (kg::EntityId e : group) ambiguous.insert(e.value());
  }

  struct PresetRow {
    const char* name;
    annotation::DeploymentPreset preset;
  };
  const PresetRow presets[] = {
      {"lexical top-prior (fast)", annotation::DeploymentPreset::kFast},
      {"+prior gate (balanced)", annotation::DeploymentPreset::kBalanced},
      {"+context rerank (accurate)",
       annotation::DeploymentPreset::kAccurate}};

  Table table({"deployment", "ambiguous-mention accuracy",
               "all-mention F1", "docs/s"});
  for (const auto& preset : presets) {
    annotation::Annotator::Options opts;
    opts.preset = preset.preset;
    annotation::Annotator annotator(&env.gen.kg, nullptr, opts);

    size_t amb_correct = 0;
    size_t amb_total = 0;
    size_t tp = 0;
    size_t fp = 0;
    size_t fn = 0;
    Stopwatch sw;
    size_t docs = 0;
    for (websim::DocId id = 0; id < corpus.size() && docs < 250;
         ++id, ++docs) {
      const auto& doc = corpus.doc(id);
      const auto annotations = annotator.Annotate(doc.body);
      std::set<std::tuple<size_t, size_t, uint64_t>> predicted;
      for (const auto& a : annotations) {
        predicted.insert({a.mention.begin, a.mention.end, a.entity.value()});
      }
      std::set<std::tuple<size_t, size_t, uint64_t>> gold;
      for (const auto& g : doc.gold_mentions) {
        gold.insert({g.begin, g.end, g.entity.value()});
        if (ambiguous.count(g.entity.value())) {
          ++amb_total;
          if (predicted.count({g.begin, g.end, g.entity.value()})) {
            ++amb_correct;
          }
        }
      }
      for (const auto& p : predicted) {
        if (gold.count(p)) ++tp;
        else ++fp;
      }
      for (const auto& g : gold) {
        if (!predicted.count(g)) ++fn;
      }
    }
    const double elapsed = sw.ElapsedSeconds();
    const double precision = tp + fp == 0 ? 0 : 1.0 * tp / (tp + fp);
    const double recall = tp + fn == 0 ? 0 : 1.0 * tp / (tp + fn);
    const double f1 = precision + recall == 0
                          ? 0
                          : 2 * precision * recall / (precision + recall);
    table.AddRow(
        {preset.name,
         Fmt(amb_total == 0 ? 0.0 : 1.0 * amb_correct / amb_total),
         Fmt(f1), Fmt(docs / elapsed, 1)});
  }
  table.Print();
}

}  // namespace
}  // namespace saga

int main() {
  saga::bench::ObsSession obs_session;
  std::printf("F2: machine-learning applications of KG embeddings "
              "(paper Figure 2)\n");
  saga::Env env = saga::MakeEnv();
  std::printf("KG: %zu entities / %zu triples; view: %zu edges\n",
              env.gen.kg.num_entities(), env.gen.kg.num_triples(),
              env.view.edges().size());

  saga::BenchVerification(env);
  const auto emb =
      saga::TrainModel(env, saga::embedding::ModelKind::kDistMult, 0.0);
  saga::BenchFactRanking(env, emb);
  saga::BenchRelatedEntities(env, emb);
  saga::BenchEntityLinking(env);
  return 0;
}
