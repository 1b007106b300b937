// M3: Graph Query Engine microbenchmarks — view materialization +
// incremental maintenance, triple-pattern matching, path following,
// traversal, PPR.
//
// `--gate` skips the microbenchmarks and times PprEngine::TopKRelated,
// which pushes on dense scratch arrays, against the hash-map push of
// tests/reference_graph.h in one process instead; it exits non-zero
// when the engine disagrees with the oracle or is not clearly faster.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/request_context.h"
#include "graph_engine/ppr.h"
#include "graph_engine/query.h"
#include "graph_engine/sampler.h"
#include "graph_engine/traversal.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"
#include "reference_graph.h"

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

// Multi-hop path composition (§2): a random entity's team's city.
void BM_FollowPath(benchmark::State& state) {
  const auto& gen = SharedKg();
  Rng rng(7);
  const std::vector<kg::PredicateId> path = {gen.schema.plays_for,
                                             gen.schema.team_city};
  for (auto _ : state) {
    benchmark::DoNotOptimize(FollowPath(
        gen.kg, kg::EntityId(rng.Uniform(gen.kg.num_entities())), path));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FollowPath);

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

// ---------- --gate ----------

// TopKRelated must take at most this share of the time of the oracle
// (reference::HashMapPpr then OracleTopK) over the same sources.
// Measured 0.148-0.163 (4 vCPU AMD EPYC, gcc 12, RelWithDebInfo); the
// same push with hash maps for its scratch arrays measures 0.706-0.712.
constexpr double kMaxPprVsOracleRatio = 0.35;

constexpr size_t kGateSources = 64;
constexpr size_t kGateK = 10;

int RunGate() {
  const auto& gen = SharedKg();
  const GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  const auto adj = reference::EdgeOrderAdjacency(view);
  const PprEngine ppr(&view);
  const RequestContext ctx;
  Rng rng(41);
  std::vector<uint32_t> sources;
  for (size_t i = 0; i < kGateSources; ++i) {
    sources.push_back(static_cast<uint32_t>(rng.Uniform(view.num_entities())));
  }
  size_t steps = 0;
  for (uint32_t s : sources) {
    const reference::OraclePpr want = reference::HashMapPpr(adj, s);
    steps += want.steps;
    auto got = ppr.TopKRelated(s, kGateK, ctx);
    if (!got.ok() || *got != reference::OracleTopK(want.p, s, kGateK)) {
      std::printf("graph gate: TopKRelated disagrees with the oracle\n");
      return 1;
    }
  }
  // Alternating passes see the same machine noise; the best of each
  // filters it.
  double engine_s = 0;
  double oracle_s = 0;
  for (int round = 0; round < 7; ++round) {
    double sink = 0;
    Stopwatch a;
    for (uint32_t s : sources) {
      sink += (*ppr.TopKRelated(s, kGateK, ctx))[0].second;
    }
    const double engine = a.ElapsedSeconds();
    Stopwatch b;
    for (uint32_t s : sources) {
      sink += reference::OracleTopK(reference::HashMapPpr(adj, s).p, s,
                                    kGateK)[0]
                  .second;
    }
    const double oracle = b.ElapsedSeconds();
    benchmark::DoNotOptimize(sink);
    if (round == 0 || engine < engine_s) engine_s = engine;
    if (round == 0 || oracle < oracle_s) oracle_s = oracle;
  }
  const double per_source = 1e6 / static_cast<double>(sources.size());
  std::printf("PPR top-%zu, dense scratch  %8.1f us/source (%zu nodes, "
              "%zu pops/source)\n",
              kGateK, engine_s * per_source, view.num_entities(),
              steps / sources.size());
  std::printf("PPR top-%zu, hash-map oracle %7.1f us/source\n", kGateK,
              oracle_s * per_source);
  const bool ok = bench::GateRow("PPR top-k vs hash-map oracle (ratio)",
                                 engine_s / oracle_s, kMaxPprVsOracleRatio);
  std::printf(ok ? "graph gate: OK\n" : "graph gate: FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace saga::graph_engine

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) {
      return saga::graph_engine::RunGate();
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
