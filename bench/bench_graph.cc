// M3: Graph Query Engine microbenchmarks — view materialization +
// incremental maintenance, triple-pattern matching, traversal, PPR.

#include <benchmark/benchmark.h>

#include "common/request_context.h"
#include "graph_engine/ppr.h"
#include "graph_engine/query.h"
#include "graph_engine/sampler.h"
#include "graph_engine/traversal.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"

namespace saga::graph_engine {
namespace {

const kg::GeneratedKg& SharedKg() {
  static const kg::GeneratedKg& gen = *new kg::GeneratedKg([] {
    kg::KgGeneratorConfig config;
    config.num_persons = 2000;
    config.num_movies = 500;
    config.num_songs = 300;
    config.num_teams = 30;
    config.num_bands = 60;
    config.num_cities = 80;
    return kg::GenerateKg(config);
  }());
  return gen;
}

void BM_ViewBuild(benchmark::State& state) {
  const auto& gen = SharedKg();
  for (auto _ : state) {
    auto view = GraphView::Build(gen.kg, ViewDefinition());
    benchmark::DoNotOptimize(view.edges().size());
  }
  state.counters["edges"] = static_cast<double>(
      GraphView::Build(gen.kg, ViewDefinition()).edges().size());
}
BENCHMARK(BM_ViewBuild);

void BM_PatternMatchSP(benchmark::State& state) {
  const auto& gen = SharedKg();
  Rng rng(5);
  for (auto _ : state) {
    TriplePattern p;
    p.subject = kg::EntityId(rng.Uniform(gen.kg.num_entities()));
    p.predicate = gen.schema.occupation;
    benchmark::DoNotOptimize(Match(gen.kg, p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PatternMatchSP);

void BM_PatternMatchPredicateScan(benchmark::State& state) {
  const auto& gen = SharedKg();
  for (auto _ : state) {
    TriplePattern p;
    p.predicate = gen.schema.acted_in;
    benchmark::DoNotOptimize(Match(gen.kg, p));
  }
}
BENCHMARK(BM_PatternMatchPredicateScan);

void BM_KHopNeighbors(benchmark::State& state) {
  const auto& gen = SharedKg();
  Rng rng(6);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(KHopNeighbors(
        gen.kg, kg::EntityId(rng.Uniform(gen.kg.num_entities())), k, 5000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KHopNeighbors)->Arg(1)->Arg(2)->Arg(3);

void BM_Ppr(benchmark::State& state) {
  const auto& gen = SharedKg();
  static const GraphView& view =
      *new GraphView(GraphView::Build(gen.kg, ViewDefinition()));
  PprEngine ppr(&view);
  const RequestContext ctx;
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ppr.TopKRelated(
        static_cast<uint32_t>(rng.Uniform(view.num_entities())), 10, ctx));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Ppr);

void BM_RandomWalks(benchmark::State& state) {
  const auto& gen = SharedKg();
  static const GraphView& view =
      *new GraphView(GraphView::Build(gen.kg, ViewDefinition()));
  RandomWalkSampler::Options opts;
  opts.walks_per_node = 1;
  opts.walk_length = 8;
  RandomWalkSampler sampler(opts);
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.GenerateWalks(view, &rng));
  }
  state.counters["nodes"] = static_cast<double>(view.num_entities());
}
BENCHMARK(BM_RandomWalks);

void BM_ViewApplyDelta(benchmark::State& state) {
  // Incremental maintenance cost per appended fact batch.
  kg::KgGeneratorConfig config;
  config.num_persons = 500;
  for (auto _ : state) {
    state.PauseTiming();
    kg::GeneratedKg gen = kg::GenerateKg(config);
    auto view = GraphView::Build(gen.kg, ViewDefinition());
    const kg::SourceId src = gen.kg.AddSource("delta", 1.0);
    Rng rng(9);
    std::vector<kg::TripleIdx> delta;
    for (int i = 0; i < 1000; ++i) {
      delta.push_back(gen.kg.AddFact(
          kg::EntityId(rng.Uniform(gen.kg.num_entities())),
          gen.schema.spouse,
          kg::Value::Entity(kg::EntityId(rng.Uniform(gen.kg.num_entities()))),
          src));
    }
    state.ResumeTiming();
    view.ApplyDelta(gen.kg, delta);
    benchmark::DoNotOptimize(view.edges().size());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ViewApplyDelta);

}  // namespace
}  // namespace saga::graph_engine

BENCHMARK_MAIN();
