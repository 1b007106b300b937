// M2: embedding-serving k-NN microbenchmarks — exact vs IVF recall/QPS
// trade-off (the §3.2 price/performance knob) and int8 quantization.
//
//   ./build/bench/bench_ann --benchmark_repetitions=5
//
// `--gate` skips the microbenchmarks and times the exact scan against
// its references in one process instead; it exits non-zero when the
// exact search disagrees with the oracle of tests/reference_ann.h, when
// the scan's dot products are not clearly faster than the scalar Dot
// (on a CPU with AVX2 and FMA), or when BruteForceIndex::Search is not
// clearly faster than the oracle.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "ann/brute_force_index.h"
#include "ann/ivf_index.h"
#include "ann/quantization.h"
#include "ann/quantized_index.h"
#include "ann/scan.h"
#include "bench_util.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "reference_ann.h"

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

// k is 10 and the related-entities service's fetch sizes: 20 and 176
// (embedding mode, unfiltered and type-filtered), 57 and 472 (blend).
void BM_ExactSearch(benchmark::State& state) {
  auto* index = ExactIndex();
  const size_t k = static_cast<size_t>(state.range(0));
  Rng rng(21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Search(RandomQuery(&rng), k));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactSearch)->Arg(10)->Arg(20)->Arg(57)->Arg(176)->Arg(472);

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

// ---------- --gate ----------

// The scan's dot products (QueryScorer, on WideDot()) must take at most
// this share of the time of the same cosine scan on the scalar Dot.
// Measured 0.54-0.55 (4 vCPU AMD EPYC, gcc 12, RelWithDebInfo); a
// dispatch that always picks the scalar kernel measures 1.02.
constexpr double kMaxSimdVsScalarRatio = 0.8;

// BruteForceIndex::Search must take at most this share of the time of
// the oracle (reference::Search). Measured 0.049-0.051 (same host); a
// scan that takes each row's norm per query measures 0.126, and one on
// the scalar Dot 0.078.
constexpr double kMaxExactVsOracleRatio = 0.09;

constexpr size_t kGateQueries = 16;
constexpr size_t kGateK = 10;

/// Seconds `pass` takes over all queries; its results go to
/// DoNotOptimize, so no pass is optimized away.
template <typename Pass>
double SecondsFor(const std::vector<std::vector<float>>& queries,
                  Pass pass) {
  double sink = 0;
  Stopwatch sw;
  for (const auto& q : queries) sink += pass(q);
  const double s = sw.ElapsedSeconds();
  benchmark::DoNotOptimize(sink);
  return s;
}

/// Every row's cosine score through QueryScorer, the production kernel,
/// without the top-k.
double ScanProduction(const std::vector<float>& q) {
  const RowMatrix& rows = *Corpus();
  const QueryScorer scorer(Metric::kCosine, q);
  double sum = 0;
  for (size_t i = 0; i < rows.size(); ++i) sum += scorer.Score(rows, i);
  return sum;
}

/// The same scan on the scalar Dot, called out of line through a
/// pointer the compiler cannot see, as QueryScorer calls its kernel.
double ScanScalar(const std::vector<float>& q) {
  WideDotFn dot = &Dot<double>;
  benchmark::DoNotOptimize(dot);
  const RowMatrix& rows = *Corpus();
  const std::vector<double> wide(q.begin(), q.end());
  const double norm = Norm(q.data(), q.size());
  double sum = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    sum += CosineFromDot(dot(wide.data(), rows.row(i), wide.size()), norm,
                         rows.norm(i));
  }
  return sum;
}

double SearchProduction(const std::vector<float>& q) {
  return ExactIndex()->Search(q, kGateK)[0].similarity;
}

double SearchOracle(const std::vector<float>& q) {
  return reference::Search(*Corpus(), Metric::kCosine, q, kGateK)[0]
      .similarity;
}

int RunGate() {
  Rng rng(31);
  std::vector<std::vector<float>> queries;
  for (size_t i = 0; i < kGateQueries; ++i) {
    queries.push_back(RandomQuery(&rng));
  }
  for (const auto& q : queries) {
    const auto got = ExactIndex()->Search(q, kGateK);
    const auto want = reference::Search(*Corpus(), Metric::kCosine, q, kGateK);
    bool same = got.size() == want.size();
    for (size_t i = 0; same && i < want.size(); ++i) {
      same = got[i].label == want[i].label &&
             got[i].similarity == want[i].similarity;
    }
    if (!same) {
      std::printf("ann gate: exact search disagrees with the oracle\n");
      return 1;
    }
  }
  // Alternating passes see the same machine noise; the best of each
  // filters it.
  double simd_s = 0;
  double scalar_s = 0;
  double exact_s = 0;
  double oracle_s = 0;
  for (int round = 0; round < 9; ++round) {
    const double a = SecondsFor(queries, ScanProduction);
    const double b = SecondsFor(queries, ScanScalar);
    const double c = SecondsFor(queries, SearchProduction);
    const double d = SecondsFor(queries, SearchOracle);
    if (round == 0 || a < simd_s) simd_s = a;
    if (round == 0 || b < scalar_s) scalar_s = b;
    if (round == 0 || c < exact_s) exact_s = c;
    if (round == 0 || d < oracle_s) oracle_s = d;
  }
  const double per_query = 1e6 / static_cast<double>(queries.size());
  std::printf("cosine scan, WideDot   %8.1f us/query (%zu rows, dim %d)\n",
              simd_s * per_query, Corpus()->size(), kDim);
  std::printf("cosine scan, scalar    %8.1f us/query\n",
              scalar_s * per_query);
  std::printf("exact search k=%zu     %8.1f us/query\n", kGateK,
              exact_s * per_query);
  std::printf("oracle search k=%zu    %8.1f us/query\n", kGateK,
              oracle_s * per_query);
  bool ok = true;
  if (CpuHasAvx2Fma()) {
    ok &= bench::GateRow("SIMD vs scalar scan (ratio)", simd_s / scalar_s,
                         kMaxSimdVsScalarRatio);
  } else {
    std::printf("gate %-38s skipped (no AVX2/FMA)\n",
                "SIMD vs scalar scan (ratio)");
  }
  ok &= bench::GateRow("exact search vs oracle (ratio)", exact_s / oracle_s,
                       kMaxExactVsOracleRatio);
  std::printf(ok ? "ann gate: OK\n" : "ann gate: FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace saga::ann

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) return saga::ann::RunGate();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
