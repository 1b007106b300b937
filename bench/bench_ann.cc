// M2: embedding-serving k-NN microbenchmarks — exact vs IVF recall/QPS
// trade-off (the §3.2 price/performance knob) and int8 quantization.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <set>

#include "ann/brute_force_index.h"
#include "ann/ivf_index.h"
#include "ann/quantization.h"
#include "ann/quantized_index.h"
#include "common/metrics.h"
#include "common/rng.h"

namespace saga::ann {
namespace {

constexpr int kDim = 32;
constexpr size_t kCorpus = 20000;

/// kCorpus Gaussian rows drawn from Rng(11), in one row matrix that
/// every index below shares.
std::shared_ptr<const RowMatrix> Corpus() {
  static const auto* corpus = [] {
    Rng rng(11);
    std::vector<uint64_t> labels(kCorpus);
    std::vector<float> data(kCorpus * kDim);
    for (size_t i = 0; i < kCorpus; ++i) labels[i] = i;
    for (float& x : data) x = static_cast<float>(rng.NextGaussian());
    return new std::shared_ptr<const RowMatrix>(
        std::make_shared<const RowMatrix>(kDim, std::move(labels),
                                          std::move(data)));
  }();
  return *corpus;
}

BruteForceIndex* ExactIndex() {
  static auto* index = new BruteForceIndex(Corpus(), Metric::kCosine);
  return index;
}

IvfIndex* ApproxIndex() {
  static IvfIndex* index = [] {
    IvfIndex::Options opts;
    opts.num_lists = 64;
    return new IvfIndex(Corpus(), Metric::kCosine, opts);
  }();
  return index;
}

std::vector<float> RandomQuery(Rng* rng) {
  std::vector<float> q(kDim);
  for (float& x : q) x = static_cast<float>(rng->NextGaussian());
  return q;
}

void BM_ExactSearch(benchmark::State& state) {
  auto* index = ExactIndex();
  Rng rng(21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Search(RandomQuery(&rng), 10));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactSearch);

void BM_IvfSearch(benchmark::State& state) {
  auto* index = ApproxIndex();
  index->set_nprobe(static_cast<int>(state.range(0)));
  Rng rng(22);
  // Measure recall@10 alongside speed.
  double recall_sum = 0.0;
  int recall_queries = 0;
  for (int q = 0; q < 20; ++q) {
    const auto query = RandomQuery(&rng);
    const auto truth = ExactIndex()->Search(query, 10);
    const auto approx = index->Search(query, 10);
    std::set<uint64_t> truth_set;
    for (const auto& h : truth) truth_set.insert(h.label);
    int hits = 0;
    for (const auto& h : approx) {
      if (truth_set.count(h.label)) ++hits;
    }
    recall_sum += hits / 10.0;
    ++recall_queries;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Search(RandomQuery(&rng), 10));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["recall@10"] = recall_sum / recall_queries;
}
BENCHMARK(BM_IvfSearch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void BM_QuantizedSearch(benchmark::State& state) {
  static auto* index =
      new QuantizedBruteForceIndex(Corpus(), Metric::kCosine);
  Rng rng(25);
  // Recall vs the float exact index.
  double recall_sum = 0.0;
  for (int q = 0; q < 20; ++q) {
    const auto query = RandomQuery(&rng);
    const auto truth = ExactIndex()->Search(query, 10);
    const auto approx = index->Search(query, 10);
    std::set<uint64_t> truth_set;
    for (const auto& h : truth) truth_set.insert(h.label);
    int hits = 0;
    for (const auto& h : approx) {
      if (truth_set.count(h.label)) ++hits;
    }
    recall_sum += hits / 10.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Search(RandomQuery(&rng), 10));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["recall@10"] = recall_sum / 20.0;
  state.counters["payload_ratio"] =
      static_cast<double>(index->PayloadBytes()) /
      static_cast<double>(kCorpus * kDim * 4);
}
BENCHMARK(BM_QuantizedSearch);

void BM_QuantizedDot(benchmark::State& state) {
  Rng rng(23);
  const auto query = RandomQuery(&rng);
  std::vector<QuantizedVector> quantized;
  for (int i = 0; i < 1000; ++i) {
    quantized.push_back(QuantizeInt8(RandomQuery(&rng)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DotQuantized(query, quantized[i++ % quantized.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuantizedDot);

void BM_FloatDot(benchmark::State& state) {
  Rng rng(24);
  const auto query = RandomQuery(&rng);
  std::vector<std::vector<float>> vecs;
  for (int i = 0; i < 1000; ++i) vecs.push_back(RandomQuery(&rng));
  size_t i = 0;
  for (auto _ : state) {
    const auto& v = vecs[i++ % vecs.size()];
    benchmark::DoNotOptimize(Dot(query.data(), v.data(), kDim));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FloatDot);

}  // namespace
}  // namespace saga::ann

BENCHMARK_MAIN();
