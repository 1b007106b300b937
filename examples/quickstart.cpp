// Quickstart: build a small open-domain KG, train embeddings, and serve
// fact ranking / related entities / fact verification queries.
//
//   ./build/examples/quickstart

#include <cstdio>

#include "common/request_context.h"
#include "embedding/embedding_store.h"
#include "embedding/evaluator.h"
#include "embedding/trainer.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"
#include "serving/embedding_service.h"
#include "serving/fact_ranker.h"
#include "serving/fact_verifier.h"
#include "serving/related_entities.h"

int main() {
  using namespace saga;

  // 1. Generate a synthetic open-domain KG (people, movies, teams...).
  kg::KgGeneratorConfig config;
  config.num_persons = 400;
  kg::GeneratedKg gen = kg::GenerateKg(config);
  std::printf("KG: %zu entities, %zu triples, %zu predicates\n",
              gen.kg.num_entities(), gen.kg.num_triples(),
              gen.kg.ontology().num_predicates());

  // 2. Build a filtered training view (drops literals, noisy facts).
  graph_engine::ViewDefinition def;
  def.min_confidence = 0.4;
  auto view = graph_engine::GraphView::Build(gen.kg, def);
  std::printf("View: %zu edges over %zu entities, %zu relations\n",
              view.edges().size(), view.num_entities(),
              view.num_relations());

  // 3. Train DistMult embeddings.
  embedding::TrainingConfig tc;
  tc.model = embedding::ModelKind::kDistMult;
  tc.dim = 32;
  tc.epochs = 8;
  tc.holdout_fraction = 0.05;
  embedding::InMemoryTrainer trainer(tc);
  auto emb = trainer.Train(view);
  std::printf("Training: loss %.3f -> %.3f over %zu epochs\n",
              emb.epoch_losses.front(), emb.epoch_losses.back(),
              emb.epoch_losses.size());
  Rng rng(1);
  std::printf("Held-out verification AUC: %.3f\n",
              embedding::EvaluateVerificationAuc(emb, view,
                                                 emb.holdout_edges, &rng));

  // 4. Serve related entities.
  serving::EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(emb, view), &gen.kg);
  serving::RelatedEntitiesService related(&gen.kg, &view, &service);

  const kg::EntityId probe = view.global_entity(42);
  std::printf("\nRelated to \"%s\":\n",
              gen.kg.catalog().name(probe).c_str());
  auto hits = related.Related(probe, 5, kg::TypeId::Invalid(),
                              RequestContext());
  if (hits.ok()) {
    for (const auto& [e, score] : *hits) {
      std::printf("  %-30s  %.4f\n", gen.kg.catalog().name(e).c_str(),
                  score);
    }
  }

  // 5. Rank a multi-valued fact ("what is the occupation of X?").
  serving::FactRanker ranker(&gen.kg, &view, &emb);
  for (const auto& rec : gen.kg.catalog().records()) {
    const auto objects = gen.kg.ObjectsOf(rec.id, gen.schema.occupation);
    if (objects.size() < 2) continue;
    std::printf("\nOccupations of \"%s\" (ranked):\n",
                rec.canonical_name.c_str());
    for (const auto& fact : ranker.Rank(rec.id, gen.schema.occupation)) {
      std::printf("  %-24s  score=%.3f (pop=%.3f)\n",
                  fact.object.is_entity()
                      ? gen.kg.catalog().name(fact.object.entity()).c_str()
                      : fact.object.ToString().c_str(),
                  fact.score, fact.popularity);
    }
    break;
  }

  // 6. Verify a fact.
  serving::FactVerifier verifier(&view, &emb);
  embedding::NegativeSampler sampler(view);
  std::vector<graph_engine::ViewEdge> pos(view.edges().begin(),
                                          view.edges().begin() + 200);
  std::vector<graph_engine::ViewEdge> neg;
  bool tail = true;
  for (const auto& e : pos) {
    neg.push_back(sampler.Corrupt(e, tail, &rng));
    tail = !tail;
  }
  verifier.Calibrate(pos, neg);
  const auto& true_edge = view.edges()[300];
  const auto verdict = verifier.Verify(
      view.global_entity(true_edge.src),
      view.global_relation(true_edge.relation),
      view.global_entity(true_edge.dst));
  std::printf("\nFact verification of a true edge: score=%.3f plausible=%s\n",
              verdict.score, verdict.plausible ? "yes" : "no");
  return 0;
}
