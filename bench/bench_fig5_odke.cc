// F5: Open-Domain Knowledge Extraction (Figure 5) — end-to-end harvest
// quality vs corroboration threshold, trained vs default corroboration
// model, targeted search vs corpus scan, gap mining from query logs,
// trends and stale facts, and coverage growth.

#include <algorithm>
#include <array>
#include <cstdio>
#include <set>

#include "bench_util.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "kg/kg_generator.h"
#include "odke/corroborator.h"
#include "odke/pipeline.h"
#include "odke/profiler.h"
#include "odke/query_log.h"
#include "websim/corpus_generator.h"
#include "websim/search_engine.h"

namespace saga {
namespace {

using bench::Fmt;
using bench::Section;
using bench::Table;

struct Env {
  kg::GeneratedKg gen;
  websim::WebCorpus corpus;
  std::unordered_map<uint64_t, kg::Value> truth;
};

Env MakeEnv() {
  kg::KgGeneratorConfig config;
  config.num_persons = 500;
  config.num_movies = 120;
  config.num_songs = 80;
  config.num_teams = 14;
  config.num_bands = 24;
  config.num_cities = 30;
  config.withheld_fact_fraction = 0.2;
  config.ambiguous_name_fraction = 0.12;
  Env env{kg::GenerateKg(config), {}, {}};
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 120;
  cc.num_noise_pages = 60;
  cc.wrong_fact_rate = 0.1;
  env.corpus = websim::GenerateCorpus(env.gen, cc);
  for (const auto& f : env.gen.functional_facts) {
    env.truth.emplace(HashCombine(f.subject.value(), f.predicate.value()),
                      f.object);
  }
  return env;
}

std::vector<odke::FactGap> DobGaps(const Env& env, size_t cap) {
  std::vector<odke::FactGap> gaps;
  for (const auto& w : env.gen.withheld_facts) {
    if (w.predicate != env.gen.schema.date_of_birth) continue;
    gaps.push_back(odke::FactGap{w.subject, w.predicate,
                                 odke::GapReason::kProfiling,
                                 kg::kInvalidTripleIdx});
    if (gaps.size() >= cap) break;
  }
  return gaps;
}

/// Trains the corroboration model on half the gaps using ground truth
/// labels; evaluation uses the other half.
odke::CorroborationModel TrainCorroborator(
    const Env& env, const odke::OdkePipeline& pipeline,
    const std::vector<odke::FactGap>& train_gaps) {
  std::vector<std::pair<odke::EvidenceFeatures, bool>> examples;
  for (const auto& gap : train_gaps) {
    size_t docs = 0;
    const auto candidates = pipeline.ExtractCandidates(gap, &docs);
    const auto it = env.truth.find(
        HashCombine(gap.subject.value(), gap.predicate.value()));
    if (it == env.truth.end()) continue;
    for (const auto& group : odke::GroupByValue(candidates)) {
      examples.emplace_back(group.features, group.value == it->second);
    }
  }
  odke::CorroborationModel model;
  model.Train(examples);
  std::printf("corroboration model trained on %zu labeled value groups\n",
              examples.size());
  return model;
}

void BenchThresholdSweep(const Env& env) {
  Section("F5a: harvest precision/recall vs corroboration threshold");
  websim::SearchEngine search(&env.corpus);
  auto gaps = DobGaps(env, 120);
  const size_t half = gaps.size() / 2;
  std::vector<odke::FactGap> train_gaps(gaps.begin(), gaps.begin() + half);
  std::vector<odke::FactGap> eval_gaps(gaps.begin() + half, gaps.end());

  odke::CorroborationModel default_model;
  odke::OdkePipeline probe(const_cast<kg::KnowledgeGraph*>(&env.gen.kg),
                           &env.corpus, &search, nullptr, &default_model);
  const odke::CorroborationModel trained =
      TrainCorroborator(env, probe, train_gaps);

  Table table({"model", "threshold", "filled", "precision", "recall"});
  for (const auto& [name, model] :
       std::vector<std::pair<std::string, const odke::CorroborationModel*>>{
           {"default", &default_model}, {"trained", &trained}}) {
    for (double threshold : {0.3, 0.5, 0.7, 0.9}) {
      odke::OdkePipeline::Options opts;
      opts.corroborator.accept_threshold = threshold;
      odke::OdkePipeline pipeline(
          const_cast<kg::KnowledgeGraph*>(&env.gen.kg), &env.corpus,
          &search, nullptr, model, opts);
      size_t filled = 0;
      size_t correct = 0;
      for (const auto& gap : eval_gaps) {
        const auto result = pipeline.HarvestGap(gap);
        if (!result.filled) continue;
        ++filled;
        const auto it = env.truth.find(
            HashCombine(gap.subject.value(), gap.predicate.value()));
        if (it != env.truth.end() && result.value == it->second) ++correct;
      }
      const double precision =
          filled == 0 ? 1.0 : static_cast<double>(correct) / filled;
      const double recall =
          eval_gaps.empty()
              ? 0.0
              : static_cast<double>(correct) / eval_gaps.size();
      table.AddRow({name, Fmt(threshold, 1), std::to_string(filled),
                    Fmt(precision), Fmt(recall)});
    }
  }
  table.Print();
  std::printf("Expected shape: higher thresholds trade recall for "
              "precision; the trained model dominates the default.\n");
}

void BenchFeatureAblation(const Env& env) {
  Section("F5d: corroboration feature ablation on namesake gaps (Fig 6)");
  // Only gaps whose subject shares a name: the adversarial slice where
  // support-count-only corroboration picks the wrong person's value.
  std::set<uint64_t> ambiguous;
  for (const auto& group : env.gen.ambiguous_groups) {
    for (kg::EntityId e : group) ambiguous.insert(e.value());
  }
  std::vector<odke::FactGap> gaps;
  for (const auto& w : env.gen.withheld_facts) {
    if (w.predicate != env.gen.schema.date_of_birth) continue;
    if (!ambiguous.count(w.subject.value())) continue;
    gaps.push_back(odke::FactGap{w.subject, w.predicate,
                                 odke::GapReason::kProfiling,
                                 kg::kInvalidTripleIdx});
  }
  if (gaps.empty()) {
    std::printf("(no ambiguous withheld DOB facts in this seed)\n");
    return;
  }
  websim::SearchEngine search(&env.corpus);

  struct ModelRow {
    const char* name;
    odke::CorroborationModel model;
  };
  // Support-only: bias + log_support; no quality/context signals.
  std::array<double, odke::EvidenceFeatures::kDim + 1> support_only{};
  support_only[0] = -1.5;
  support_only[1] = 2.0;
  // No-context: default weights minus the subject-context features.
  odke::CorroborationModel full;  // default weights
  auto no_context_weights = full.weights();
  no_context_weights[9] = 0.0;
  no_context_weights[10] = 0.0;
  const ModelRow models[] = {
      {"support count only",
       odke::CorroborationModel::WithWeights(support_only)},
      {"full minus subject-context",
       odke::CorroborationModel::WithWeights(no_context_weights)},
      {"full evidence model", std::move(full)}};

  Table table({"corroboration features", "filled", "correct",
               "precision on namesakes"});
  for (const auto& row : models) {
    odke::OdkePipeline pipeline(
        const_cast<kg::KnowledgeGraph*>(&env.gen.kg), &env.corpus, &search,
        nullptr, &row.model);
    size_t filled = 0;
    size_t correct = 0;
    for (const auto& gap : gaps) {
      const auto result = pipeline.HarvestGap(gap);
      if (!result.filled) continue;
      ++filled;
      const auto it = env.truth.find(
          HashCombine(gap.subject.value(), gap.predicate.value()));
      if (it != env.truth.end() && result.value == it->second) ++correct;
    }
    table.AddRow({row.name, std::to_string(filled),
                  std::to_string(correct),
                  Fmt(filled == 0 ? 0.0
                                  : static_cast<double>(correct) / filled)});
  }
  table.Print();
  std::printf("(%zu namesake gaps; without the subject-context feature the "
              "popular namesake's value wins on support)\n",
              gaps.size());
}

void BenchTargetedSearch(const Env& env) {
  Section("F5b: targeted search vs corpus scan (the volume challenge)");
  websim::SearchEngine search(&env.corpus);
  odke::CorroborationModel model;
  auto gaps = DobGaps(env, 30);

  Table table({"retrieval", "docs touched / gap", "wall s / gap",
               "recall"});
  for (bool targeted : {true, false}) {
    odke::OdkePipeline::Options opts;
    opts.targeted_search = targeted;
    odke::OdkePipeline pipeline(
        const_cast<kg::KnowledgeGraph*>(&env.gen.kg), &env.corpus, &search,
        nullptr, &model, opts);
    size_t total_docs = 0;
    size_t correct = 0;
    Stopwatch sw;
    for (const auto& gap : gaps) {
      const auto result = pipeline.HarvestGap(gap);
      total_docs += result.docs_fetched;
      const auto it = env.truth.find(
          HashCombine(gap.subject.value(), gap.predicate.value()));
      if (result.filled && it != env.truth.end() &&
          result.value == it->second) {
        ++correct;
      }
    }
    const double elapsed = sw.ElapsedSeconds();
    table.AddRow({targeted ? "query synthesis + search" : "full scan",
                  Fmt(static_cast<double>(total_docs) / gaps.size(), 1),
                  Fmt(elapsed / gaps.size(), 3),
                  Fmt(static_cast<double>(correct) / gaps.size())});
  }
  table.Print();
  std::printf("Expected shape: targeted search touches orders of magnitude "
              "fewer documents with nearly the same recall.\n");
}

/// The query log asks for withheld facts too (users do not know what the
/// KG lacks); a surge of asks for a few of them is the trend.
std::vector<odke::FactGap> TrendingGaps(const Env& env, Rng* rng) {
  const auto old_window = odke::GenerateQueryLog(env.gen, 2000, rng);
  auto new_window = odke::GenerateQueryLog(env.gen, 2000, rng);
  for (size_t i = 0; i < env.gen.withheld_facts.size() && i < 10; ++i) {
    const auto& w = env.gen.withheld_facts[i];
    new_window.insert(new_window.end(), 12,
                      odke::FactQuery{"surge", w.subject, w.predicate});
  }
  return odke::FindTrendingGaps(env.gen.kg, old_window, new_window);
}

void BenchGapMining(const Env& env) {
  Section("F5e: gap mining from query logs, trends and stale facts (§4)");
  websim::SearchEngine search(&env.corpus);
  odke::CorroborationModel model;
  odke::OdkePipeline pipeline(const_cast<kg::KnowledgeGraph*>(&env.gen.kg),
                              &env.corpus, &search, nullptr, &model);
  Rng rng(5);
  odke::KgProfiler::Options popts;
  popts.staleness_horizon = 1;  // the generator stamps stale facts ts=1
  const odke::KgProfiler profiler(&env.gen.kg, popts);
  const std::vector<std::pair<std::string, std::vector<odke::FactGap>>>
      sources = {
          {"unanswered queries",
           odke::FindUnansweredQueries(
               env.gen.kg, odke::GenerateQueryLog(env.gen, 5000, &rng))},
          {"trending queries", TrendingGaps(env, &rng)},
          {"stale facts", profiler.FindStaleFacts()},
      };

  constexpr size_t kHarvestCap = 40;
  Table table({"gap source", "gaps", "harvested", "filled", "precision"});
  for (const auto& [name, gaps] : sources) {
    const size_t harvested = std::min(gaps.size(), kHarvestCap);
    size_t filled = 0;
    size_t correct = 0;
    for (size_t i = 0; i < harvested; ++i) {
      const auto result = pipeline.HarvestGap(gaps[i]);
      if (!result.filled) continue;
      ++filled;
      const auto it = env.truth.find(
          HashCombine(gaps[i].subject.value(), gaps[i].predicate.value()));
      if (it != env.truth.end() && result.value == it->second) ++correct;
    }
    table.AddRow({name, std::to_string(gaps.size()),
                  std::to_string(harvested), std::to_string(filled),
                  Fmt(filled == 0 ? 0.0
                                  : static_cast<double>(correct) / filled)});
  }
  table.Print();
  std::printf("Reactive gaps come from asks the KG cannot answer, trending "
              "ones from asks that surged, stale ones from old "
              "provenance; each is harvested without touching the KG.\n");
}

void BenchCoverageGrowth(Env env) {
  Section("F5c: KG coverage before/after an ODKE run");
  websim::SearchEngine search(&env.corpus);
  odke::KgProfiler::Options popts;
  popts.literal_predicates_only = true;
  odke::KgProfiler profiler(&env.gen.kg, popts);
  const double dob_before = profiler.Coverage(
      env.gen.schema.person, env.gen.schema.date_of_birth);
  const double height_before =
      profiler.Coverage(env.gen.schema.person, env.gen.schema.height_cm);

  auto gaps = profiler.FindCoverageGaps();
  odke::CorroborationModel model;
  odke::OdkePipeline pipeline(&env.gen.kg, &env.corpus, &search, nullptr,
                              &model);
  Stopwatch sw;
  const auto stats = pipeline.Run(gaps);
  const double elapsed = sw.ElapsedSeconds();

  odke::KgProfiler after(&env.gen.kg);
  Table table({"predicate", "coverage before", "coverage after"});
  table.AddRow({"date_of_birth", Fmt(dob_before),
                Fmt(after.Coverage(env.gen.schema.person,
                                   env.gen.schema.date_of_birth))});
  table.AddRow({"height_cm", Fmt(height_before),
                Fmt(after.Coverage(env.gen.schema.person,
                                   env.gen.schema.height_cm))});
  table.Print();
  std::printf("run: %zu gaps processed, %zu filled, %zu candidate facts, "
              "%.1f docs fetched/gap, %.2fs total\n",
              stats.gaps_processed, stats.gaps_filled,
              stats.candidates_extracted,
              static_cast<double>(stats.docs_fetched) /
                  std::max<size_t>(1, stats.gaps_processed),
              elapsed);
}

}  // namespace
}  // namespace saga

int main() {
  saga::bench::ObsSession obs_session;
  std::printf("F5: Open-Domain Knowledge Extraction (paper Figure 5)\n");
  saga::Env env = saga::MakeEnv();
  std::printf("KG: %zu entities / %zu triples; %zu withheld facts; "
              "corpus %zu docs\n",
              env.gen.kg.num_entities(), env.gen.kg.num_triples(),
              env.gen.withheld_facts.size(), env.corpus.size());
  saga::BenchThresholdSweep(env);
  saga::BenchFeatureAblation(env);
  saga::BenchTargetedSearch(env);
  saga::BenchGapMining(env);
  saga::BenchCoverageGrowth(std::move(env));
  return 0;
}
