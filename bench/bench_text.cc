// Text-path microbenchmarks: tokenizing and embedding every entity
// profile text of the serving benchmark's KG (8,000 persons, generator
// defaults otherwise), the work behind text.profile_embed.
//
//   ./build/bench/bench_text --benchmark_repetitions=5

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "annotation/context_reranker.h"
#include "kg/kg_generator.h"
#include "text/hashing_vectorizer.h"
#include "text/tokenizer.h"

namespace saga::text {
namespace {

const std::vector<std::string>& ProfileTexts() {
  static const auto& texts = *new std::vector<std::string>([] {
    kg::KgGeneratorConfig config;
    config.num_persons = 8000;
    const kg::GeneratedKg gen = kg::GenerateKg(config);
    const annotation::ContextReranker reranker(&gen.kg);
    std::vector<std::string> out;
    for (const auto& rec : gen.kg.catalog().records()) {
      out.push_back(reranker.EntityProfileText(rec.id));
    }
    return out;
  }());
  return texts;
}

void SetTextCounters(benchmark::State& state) {
  const auto& texts = ProfileTexts();
  size_t tokens = 0;
  for (const std::string& t : texts) tokens += Tokenize(t).size();
  state.SetItemsProcessed(state.iterations());
  state.counters["texts"] = static_cast<double>(texts.size());
  state.counters["tokens_per_text"] =
      static_cast<double>(tokens) / static_cast<double>(texts.size());
}

void BM_EmbedProfileText(benchmark::State& state) {
  const auto& texts = ProfileTexts();
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
  const auto& texts = ProfileTexts();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Tokenize(texts[i]));
    if (++i == texts.size()) i = 0;
  }
  SetTextCounters(state);
}
BENCHMARK(BM_Tokenize);

}  // namespace
}  // namespace saga::text

BENCHMARK_MAIN();
