// Question answering over the KG — the paper's §1 motivating example:
// a query like "benicio del toro movies" is semantically annotated
// ("benicio del toro" -> entity id, "movies" -> relation), retrieved
// from the graph, and importance-ranked.
//
//   ./build/examples/serve_queries

#include <cstdio>

#include "annotation/query_answering.h"
#include "common/request_context.h"
#include "common/string_util.h"
#include "embedding/trainer.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"
#include "serving/fact_ranker.h"

int main() {
  using namespace saga;

  kg::KgGeneratorConfig config;
  config.num_persons = 400;
  kg::GeneratedKg gen = kg::GenerateKg(config);

  graph_engine::ViewDefinition def;
  def.min_confidence = 0.4;
  auto view = graph_engine::GraphView::Build(gen.kg, def);
  embedding::TrainingConfig tc;
  tc.dim = 24;
  tc.epochs = 6;
  embedding::InMemoryTrainer trainer(tc);
  const auto emb = trainer.Train(view);
  serving::FactRanker ranker(&gen.kg, &view, &emb);
  annotation::QueryAnswerer answerer(&gen.kg, &ranker);

  // Build natural queries from real entities: "<director name> movies",
  // "<person> date of birth", "<athlete> team", "<person> spouse".
  std::vector<std::string> queries;
  for (const auto& rec : gen.kg.catalog().records()) {
    if (queries.size() >= 6) break;
    if (gen.kg.catalog().HasType(rec.id, gen.schema.director) &&
        !gen.kg.ObjectsOf(rec.id, gen.schema.directed).empty()) {
      queries.push_back(ToLower(rec.canonical_name) + " movies directed");
    } else if (gen.kg.catalog().HasType(rec.id, gen.schema.athlete)) {
      queries.push_back(ToLower(rec.canonical_name) + " team");
    } else if (gen.kg.catalog().HasType(rec.id, gen.schema.actor) &&
               queries.size() < 4) {
      queries.push_back(ToLower(rec.canonical_name) + " movies");
      queries.push_back(ToLower(rec.canonical_name) + " date of birth");
    }
  }

  for (const std::string& query : queries) {
    auto result = answerer.Ask(query, RequestContext());
    if (!result.ok()) {
      std::printf("Q: %s\n   %s\n\n", query.c_str(),
                  result.status().ToString().c_str());
      continue;
    }
    const auto& answer = *result;
    std::printf("Q: %s\n   %s\n", query.c_str(),
                answer.explanation.c_str());
    if (!answer.answered) {
      std::printf("   (no answer)\n\n");
      continue;
    }
    for (size_t i = 0; i < std::min<size_t>(3, answer.facts.size()); ++i) {
      const auto& fact = answer.facts[i];
      std::printf("   %zu. %s\n", i + 1,
                  fact.object.is_entity()
                      ? gen.kg.catalog().name(fact.object.entity()).c_str()
                      : fact.object.ToString().c_str());
    }
    std::printf("\n");
  }

  // The disambiguation case: same name, different relations resolve to
  // different namesakes through the query context.
  if (!gen.ambiguous_groups.empty()) {
    const auto& group = gen.ambiguous_groups[0];
    const std::string name = ToLower(gen.kg.catalog().name(group[0]));
    for (const char* suffix : {" team", " movies", " university"}) {
      auto answer = answerer.Ask(name + suffix, RequestContext());
      std::printf("Q: %s%s\n   %s\n\n", name.c_str(), suffix,
                  answer.ok() ? answer->explanation.c_str()
                              : answer.status().ToString().c_str());
    }
  }
  return 0;
}
