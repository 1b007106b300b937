// Text-path microbenchmarks over every entity profile of the serving
// benchmark's KG (8,000 persons, generator defaults otherwise):
// tokenizing and embedding the profile texts, and scoring each profile
// against a context the way ContextReranker::Rerank does without a
// cache, once straight from the KG (the serving path) and once through
// the profile text (Cosine(Embed(EntityProfileText))).
//
//   ./build/bench/bench_text --benchmark_repetitions=5
//
// `--gate` skips the microbenchmarks and times the scoring paths in one
// process instead; it exits non-zero when scoring from the KG is not
// clearly faster than scoring through the text, or when scoring a
// profile held in the memory tier of the precomputed profile cache
// (Rerank's hit path) is not clearly faster than scoring from the KG.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "annotation/context_reranker.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "kg/kg_generator.h"
#include "text/hashing_vectorizer.h"
#include "text/tokenizer.h"

namespace saga::text {
namespace {

kg::GeneratedKg ServingKg() {
  kg::KgGeneratorConfig config;
  config.num_persons = 8000;
  return kg::GenerateKg(config);
}

struct Profiles {
  Profiles() : gen(ServingKg()), reranker(&gen.kg) {
    for (const auto& rec : gen.kg.catalog().records()) {
      ids.push_back(rec.id);
      texts.push_back(reranker.EntityProfileText(rec.id));
    }
    context = reranker.vectorizer().Embed(texts[0] + " " +
                                          texts[texts.size() / 2]);
  }

  kg::GeneratedKg gen;
  annotation::ContextReranker reranker;
  std::vector<kg::EntityId> ids;
  std::vector<std::string> texts;
  /// A context that shares words with many profiles.
  std::vector<float> context;
  /// The precomputed profile cache, every profile memory-resident; set
  /// by the gate only.
  serving::EmbeddingKvCache* cache = nullptr;
};

Profiles& ServingProfiles() {
  static Profiles& p = *new Profiles();
  return p;
}

void SetTextCounters(benchmark::State& state) {
  const auto& texts = ServingProfiles().texts;
  size_t tokens = 0;
  for (const std::string& t : texts) tokens += Tokenize(t).size();
  state.SetItemsProcessed(state.iterations());
  state.counters["texts"] = static_cast<double>(texts.size());
  state.counters["tokens_per_text"] =
      static_cast<double>(tokens) / static_cast<double>(texts.size());
}

void BM_EmbedProfileText(benchmark::State& state) {
  const auto& texts = ServingProfiles().texts;
  const HashingVectorizer vectorizer;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vectorizer.Embed(texts[i]));
    if (++i == texts.size()) i = 0;
  }
  SetTextCounters(state);
}
BENCHMARK(BM_EmbedProfileText);

void BM_Tokenize(benchmark::State& state) {
  const auto& texts = ServingProfiles().texts;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Tokenize(texts[i]));
    if (++i == texts.size()) i = 0;
  }
  SetTextCounters(state);
}
BENCHMARK(BM_Tokenize);

/// One candidate's on-the-fly score as Rerank computes it: a sparse
/// profile vector built from the KG fields, dotted with the context.
double ScoreFromKg(const Profiles& p, size_t i) {
  return p.reranker.ProfileSimilarity(p.ids[i], p.context);
}

/// The same score through the profile text and a dense embedding.
double ScoreViaText(const Profiles& p, size_t i) {
  return HashingVectorizer::Cosine(
      p.context, p.reranker.vectorizer().Embed(
                     p.reranker.EntityProfileText(p.ids[i])));
}

/// A cache hit as Rerank scores it: the stored sparse profile, found by
/// id, dotted with the context.
double ScoreCached(const Profiles& p, size_t i) {
  return HashingVectorizer::Dot(p.cache->Find(p.ids[i])->sparse, p.context);
}

template <double (*Score)(const Profiles&, size_t)>
void BM_ProfileScore(benchmark::State& state) {
  const Profiles& p = ServingProfiles();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Score(p, i));
    if (++i == p.ids.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["profiles"] = static_cast<double>(p.ids.size());
}

void BM_ProfileScoreFromKg(benchmark::State& state) {
  BM_ProfileScore<ScoreFromKg>(state);
}
BENCHMARK(BM_ProfileScoreFromKg);

void BM_ProfileScoreViaText(benchmark::State& state) {
  BM_ProfileScore<ScoreViaText>(state);
}
BENCHMARK(BM_ProfileScoreViaText);

/// One pass over every profile, in ns per profile.
template <double (*Score)(const Profiles&, size_t)>
double NsPerProfile(const Profiles& p) {
  double sink = 0;
  Stopwatch sw;
  for (size_t i = 0; i < p.ids.size(); ++i) sink += Score(p, i);
  const double ns =
      sw.ElapsedSeconds() * 1e9 / static_cast<double>(p.ids.size());
  benchmark::DoNotOptimize(sink);
  return ns;
}

// Scoring from the KG must take at most this share of the time of
// scoring through the text, both timed in one process. Measured
// 0.52-0.55 (4 vCPU AMD EPYC, gcc 12, Release); a path that builds the
// joined profile string measures 0.9.
constexpr double kMaxKgVsTextRatio = 0.75;

// Scoring a memory-resident cached profile must take at most this share
// of the time of scoring from the KG. Measured 0.35-0.44 (4 vCPU Intel
// Xeon, gcc 12, -O2); a hit path that encodes and decodes a byte string
// per lookup measures 1.09-1.51.
constexpr double kMaxCachedVsKgRatio = 0.7;

bool GateRow(const char* name, double ratio, double limit) {
  const bool ok = ratio <= limit;
  std::printf("gate %-38s %10.3f <= %10.3f  %s\n", name, ratio, limit,
              ok ? "PASS" : "FAIL");
  return ok;
}

int RunGate() {
  Profiles& p = ServingProfiles();
  auto dir = MakeTempDir("bench_text_cache");
  if (!dir.ok()) return 1;
  // Room for every profile in every shard's share of the budget.
  auto cache = serving::EmbeddingKvCache::Open(*dir, size_t{32} << 20);
  if (!cache.ok() || !p.reranker.PrecomputeProfiles(cache->get()).ok()) {
    std::printf("text gate: cache setup failed\n");
    return 1;
  }
  p.cache = cache->get();
  for (kg::EntityId id : p.ids) (void)p.cache->Find(id);  // fills memory
  // Alternating passes see the same machine noise; the best of each
  // filters it.
  double text_ns = 0;
  double kg_ns = 0;
  double cached_ns = 0;
  for (int round = 0; round < 9; ++round) {
    const double t = NsPerProfile<ScoreViaText>(p);
    const double k = NsPerProfile<ScoreFromKg>(p);
    const double c = NsPerProfile<ScoreCached>(p);
    if (round == 0 || t < text_ns) text_ns = t;
    if (round == 0 || k < kg_ns) kg_ns = k;
    if (round == 0 || c < cached_ns) cached_ns = c;
  }
  const auto stats = p.cache->stats();
  p.cache = nullptr;
  cache->reset();
  (void)RemoveDirRecursively(*dir);
  if (stats.disk_hits != p.ids.size() || stats.misses != 0) {
    std::printf("text gate: cached profiles were not all memory-resident\n");
    return 1;
  }
  std::printf("profile score via text  %8.1f ns/profile (%zu profiles)\n",
              text_ns, p.ids.size());
  std::printf("profile score from KG   %8.1f ns/profile\n", kg_ns);
  std::printf("profile score cached    %8.1f ns/profile\n", cached_ns);
  bool ok = GateRow("from KG vs via text (ratio)", kg_ns / text_ns,
                    kMaxKgVsTextRatio);
  ok &= GateRow("cached hit vs from KG (ratio)", cached_ns / kg_ns,
                kMaxCachedVsKgRatio);
  std::printf(ok ? "text gate: OK\n" : "text gate: FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace saga::text

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) return saga::text::RunGate();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
