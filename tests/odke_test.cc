#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "annotation/annotator.h"
#include "annotation/web_linker.h"
#include "common/hash.h"
#include "kg/kg_generator.h"
#include "odke/corroborator.h"
#include "odke/extractor.h"
#include "odke/pipeline.h"
#include "odke/profiler.h"
#include "odke/query_log.h"
#include "odke/query_synthesizer.h"
#include "websim/corpus_generator.h"
#include "websim/search_engine.h"

namespace saga::odke {
namespace {

struct OdkeFixture {
  kg::GeneratedKg gen;
  websim::WebCorpus corpus;

  static OdkeFixture Make(double wrong_fact_rate = 0.08) {
    kg::KgGeneratorConfig config;
    config.num_persons = 100;
    config.num_movies = 30;
    config.num_songs = 20;
    config.num_teams = 6;
    config.num_bands = 8;
    config.num_cities = 12;
    config.withheld_fact_fraction = 0.2;
    OdkeFixture f{kg::GenerateKg(config), {}};
    websim::CorpusGeneratorConfig cc;
    cc.num_news_pages = 30;
    cc.num_noise_pages = 15;
    cc.wrong_fact_rate = wrong_fact_rate;
    f.corpus = websim::GenerateCorpus(f.gen, cc);
    return f;
  }

  std::unordered_map<uint64_t, kg::Value> TruthMap() const {
    std::unordered_map<uint64_t, kg::Value> truth;
    for (const auto& fact : gen.functional_facts) {
      truth.emplace(HashCombine(fact.subject.value(), fact.predicate.value()),
                    fact.object);
    }
    return truth;
  }
};

// ---------- Profiler ----------

TEST(ProfilerTest, FindsWithheldFactsAsCoverageGaps) {
  OdkeFixture f = OdkeFixture::Make();
  KgProfiler profiler(&f.gen.kg);
  const auto gaps = profiler.FindCoverageGaps();
  ASSERT_FALSE(gaps.empty());

  // Every withheld DOB/height fact should surface as a gap.
  std::set<std::pair<uint64_t, uint64_t>> gap_set;
  for (const auto& g : gaps) {
    gap_set.insert({g.subject.value(), g.predicate.value()});
    EXPECT_EQ(g.reason, GapReason::kProfiling);
    // Gaps are real: KG has no such fact.
    EXPECT_TRUE(f.gen.kg.triples()
                    .BySubjectPredicate(g.subject, g.predicate)
                    .empty());
  }
  size_t covered = 0;
  for (const auto& w : f.gen.withheld_facts) {
    if (gap_set.count({w.subject.value(), w.predicate.value()})) ++covered;
  }
  EXPECT_EQ(covered, f.gen.withheld_facts.size());
}

TEST(ProfilerTest, CoverageComputation) {
  OdkeFixture f = OdkeFixture::Make();
  KgProfiler profiler(&f.gen.kg);
  const double dob_coverage =
      profiler.Coverage(f.gen.schema.person, f.gen.schema.date_of_birth);
  // ~20% withheld + ~5% stale-but-present => coverage ~0.8.
  EXPECT_GT(dob_coverage, 0.6);
  EXPECT_LT(dob_coverage, 0.95);
}

TEST(ProfilerTest, FindsStaleFacts) {
  OdkeFixture f = OdkeFixture::Make();
  KgProfiler::Options opts;
  opts.staleness_horizon = 1;  // generator marks stale facts with ts=1
  KgProfiler profiler(&f.gen.kg, opts);
  const auto stale = profiler.FindStaleFacts();
  EXPECT_GE(stale.size(), f.gen.stale_facts.size());
  for (const auto& g : stale) {
    EXPECT_EQ(g.reason, GapReason::kStale);
    EXPECT_NE(g.stale_triple, kg::kInvalidTripleIdx);
  }
}

// ---------- Query log ----------

TEST(QueryLogTest, PopularEntitiesAskedMore) {
  OdkeFixture f = OdkeFixture::Make();
  Rng rng(3);
  const auto log = GenerateQueryLog(f.gen, 3000, &rng);
  ASSERT_EQ(log.size(), 3000u);
  std::unordered_map<uint64_t, size_t> asks;
  for (const auto& q : log) ++asks[q.subject.value()];
  // Correlation check: the most popular person is asked more than an
  // unpopular one on average.
  double pop_weighted = 0.0;
  double uniform = 0.0;
  for (const auto& [subject, count] : asks) {
    pop_weighted +=
        f.gen.kg.catalog().popularity(kg::EntityId(subject)) * count;
    uniform += f.gen.kg.catalog().popularity(kg::EntityId(subject));
  }
  EXPECT_GT(pop_weighted / 3000.0, uniform / asks.size());
}

TEST(QueryLogTest, UnansweredQueriesBecomeGaps) {
  OdkeFixture f = OdkeFixture::Make();
  Rng rng(3);
  const auto log = GenerateQueryLog(f.gen, 5000, &rng);
  const auto gaps = FindUnansweredQueries(f.gen.kg, log);
  ASSERT_FALSE(gaps.empty());
  for (const auto& g : gaps) {
    EXPECT_TRUE(f.gen.kg.triples()
                    .BySubjectPredicate(g.subject, g.predicate)
                    .empty());
    EXPECT_EQ(g.reason, GapReason::kQueryLog);
  }
  // Gaps must correspond to withheld facts (the only unanswerable asks).
  std::set<std::pair<uint64_t, uint64_t>> withheld;
  for (const auto& w : f.gen.withheld_facts) {
    withheld.insert({w.subject.value(), w.predicate.value()});
  }
  for (const auto& g : gaps) {
    EXPECT_TRUE(withheld.count({g.subject.value(), g.predicate.value()}));
  }
}

// The mining bench_fig5_odke's "F5e" section runs before it harvests,
// at its seed and window sizes, over this fixture's KG: each query-log
// source yields gaps, and no (subject, predicate) is listed twice.
TEST(QueryLogTest, MinedGapsAreNonEmptyAndDeduplicated) {
  OdkeFixture f = OdkeFixture::Make();
  ASSERT_FALSE(f.gen.withheld_facts.empty());
  Rng rng(5);
  const auto unanswered =
      FindUnansweredQueries(f.gen.kg, GenerateQueryLog(f.gen, 5000, &rng));
  const auto old_window = GenerateQueryLog(f.gen, 2000, &rng);
  auto new_window = GenerateQueryLog(f.gen, 2000, &rng);
  for (size_t i = 0; i < f.gen.withheld_facts.size() && i < 10; ++i) {
    const auto& w = f.gen.withheld_facts[i];
    new_window.insert(new_window.end(), 12,
                      FactQuery{"surge", w.subject, w.predicate});
  }
  const auto trending = FindTrendingGaps(f.gen.kg, old_window, new_window);
  for (const auto* gaps : {&unanswered, &trending}) {
    ASSERT_FALSE(gaps->empty());
    std::set<std::pair<uint64_t, uint64_t>> keys;
    for (const auto& g : *gaps) {
      EXPECT_TRUE(keys.insert({g.subject.value(), g.predicate.value()}).second)
          << "duplicate gap for entity " << g.subject.value();
    }
  }
}

// ---------- Query synthesizer ----------

TEST(QuerySynthesizerTest, GeneratesNameAndSurfaceForm) {
  OdkeFixture f = OdkeFixture::Make();
  QuerySynthesizer synth(&f.gen.kg);
  ASSERT_FALSE(f.gen.withheld_facts.empty());
  const auto& w = f.gen.withheld_facts[0];
  FactGap gap{w.subject, w.predicate, GapReason::kProfiling,
              kg::kInvalidTripleIdx};
  const auto queries = synth.Synthesize(gap);
  ASSERT_FALSE(queries.empty());
  EXPECT_LE(queries.size(), 4u);
  const std::string& name = f.gen.kg.catalog().name(w.subject);
  const std::string& surface =
      f.gen.kg.ontology().predicate(w.predicate).surface_form;
  EXPECT_NE(queries[0].find(name), std::string::npos);
  EXPECT_NE(queries[0].find(surface), std::string::npos);
}

// ---------- Extractors ----------

TEST(ExtractorTest, InfoboxExtractsIsoDate) {
  OdkeFixture f = OdkeFixture::Make(/*wrong_fact_rate=*/0.0);
  InfoboxExtractor extractor(&f.gen.kg);
  const auto truth = f.TruthMap();

  // Skip namesakes: a page about the *other* person with the same name
  // legitimately passes the about-subject check and yields their DOB
  // (that is the Fig-6 confusion the corroborator exists to fix).
  std::set<uint64_t> ambiguous;
  for (const auto& group : f.gen.ambiguous_groups) {
    for (kg::EntityId e : group) ambiguous.insert(e.value());
  }

  size_t extracted = 0;
  size_t correct = 0;
  for (const auto& w : f.gen.withheld_facts) {
    if (w.predicate != f.gen.schema.date_of_birth) continue;
    if (ambiguous.count(w.subject.value())) continue;
    FactGap gap{w.subject, w.predicate, GapReason::kProfiling,
                kg::kInvalidTripleIdx};
    for (websim::DocId id = 0; id < f.corpus.size(); ++id) {
      const websim::WebDocument& doc = f.corpus.doc(id);
      const auto facts = extractor.Extract(doc, gap, nullptr);
      for (const auto& fact : facts) {
        ++extracted;
        EXPECT_EQ(fact.extractor, ExtractorKind::kInfoboxRule);
        EXPECT_GT(fact.confidence, 0.8);
        if (fact.value == w.object) ++correct;
      }
    }
  }
  ASSERT_GT(extracted, 0u);
  // With zero wrong-fact rate, every extraction is correct.
  EXPECT_EQ(correct, extracted);
}

TEST(ExtractorTest, TextPatternExtractsLongDate) {
  OdkeFixture f = OdkeFixture::Make(0.0);
  TextPatternExtractor extractor(&f.gen.kg);
  size_t extracted = 0;
  size_t correct = 0;
  for (const auto& w : f.gen.withheld_facts) {
    if (w.predicate != f.gen.schema.date_of_birth) continue;
    FactGap gap{w.subject, w.predicate, GapReason::kProfiling,
                kg::kInvalidTripleIdx};
    for (websim::DocId id = 0; id < f.corpus.size(); ++id) {
      const websim::WebDocument& doc = f.corpus.doc(id);
      for (const auto& fact : extractor.Extract(doc, gap, nullptr)) {
        ++extracted;
        EXPECT_EQ(fact.extractor, ExtractorKind::kTextPattern);
        if (fact.value == w.object) ++correct;
      }
    }
  }
  ASSERT_GT(extracted, 0u);
  // Namesakes can cause wrong-subject matches, so not all are correct,
  // but the bulk should be.
  EXPECT_GT(static_cast<double>(correct) / extracted, 0.7);
}

TEST(ExtractorTest, TextPatternExtractsHeights) {
  OdkeFixture f = OdkeFixture::Make(0.0);
  TextPatternExtractor extractor(&f.gen.kg);
  size_t extracted = 0;
  for (const auto& w : f.gen.withheld_facts) {
    if (w.predicate != f.gen.schema.height_cm) continue;
    FactGap gap{w.subject, w.predicate, GapReason::kProfiling,
                kg::kInvalidTripleIdx};
    for (websim::DocId id = 0; id < f.corpus.size(); ++id) {
      const websim::WebDocument& doc = f.corpus.doc(id);
      for (const auto& fact : extractor.Extract(doc, gap, nullptr)) {
        EXPECT_EQ(fact.value.kind(), kg::Value::Kind::kInt);
        EXPECT_GT(fact.value.int_value(), 100);
        EXPECT_LT(fact.value.int_value(), 260);
        ++extracted;
      }
    }
    if (extracted > 10) break;
  }
  EXPECT_GT(extracted, 0u);
}

TEST(ExtractorTest, AnnotationWeakLabelsBoostConfidence) {
  OdkeFixture f = OdkeFixture::Make(0.0);
  annotation::Annotator annotator(&f.gen.kg, nullptr);
  TextPatternExtractor extractor(&f.gen.kg);

  ASSERT_FALSE(f.gen.withheld_facts.empty());
  for (const auto& w : f.gen.withheld_facts) {
    if (w.predicate != f.gen.schema.date_of_birth) continue;
    FactGap gap{w.subject, w.predicate, GapReason::kProfiling,
                kg::kInvalidTripleIdx};
    for (websim::DocId id = 0; id < f.corpus.size(); ++id) {
      const auto& doc = f.corpus.doc(id);
      const auto plain = extractor.Extract(doc, gap, nullptr);
      if (plain.empty()) continue;
      annotation::AnnotatedDocument ann;
      ann.doc = id;
      ann.annotations = annotator.Annotate(doc.body);
      const auto boosted = extractor.Extract(doc, gap, &ann);
      ASSERT_EQ(boosted.size(), plain.size());
      bool any_boost = false;
      for (size_t i = 0; i < plain.size(); ++i) {
        EXPECT_GE(boosted[i].confidence, plain[i].confidence);
        if (boosted[i].confidence > plain[i].confidence) any_boost = true;
      }
      if (any_boost) return;  // success
    }
  }
  FAIL() << "annotations never boosted extraction confidence";
}

// ---------- Corroborator ----------

TEST(CorroboratorTest, GroupingAggregatesEvidence) {
  CandidateFact a;
  a.value = kg::Value::Int(180);
  a.confidence = 0.9;
  a.extractor = ExtractorKind::kInfoboxRule;
  a.domain = "siteA";
  a.source_quality = 0.9;
  CandidateFact b = a;
  b.confidence = 0.6;
  b.extractor = ExtractorKind::kTextPattern;
  b.domain = "siteB";
  CandidateFact c;
  c.value = kg::Value::Int(195);
  c.confidence = 0.6;
  c.extractor = ExtractorKind::kTextPattern;
  c.domain = "siteC";
  c.source_quality = 0.3;

  const auto groups = GroupByValue({a, b, c});
  ASSERT_EQ(groups.size(), 2u);
  const ValueGroup& majority =
      groups[0].value == kg::Value::Int(180) ? groups[0] : groups[1];
  EXPECT_EQ(majority.evidence.size(), 2u);
  EXPECT_NEAR(majority.features.log_support, std::log1p(2.0), 1e-9);
  EXPECT_DOUBLE_EQ(majority.features.max_confidence, 0.9);
  EXPECT_DOUBLE_EQ(majority.features.infobox_fraction, 0.5);
  EXPECT_NEAR(majority.features.distinct_domains, std::log1p(2.0), 1e-9);
}

TEST(CorroboratorTest, DefaultModelPrefersStrongerEvidence) {
  CorroborationModel model;
  EvidenceFeatures strong;
  strong.log_support = std::log1p(5.0);
  strong.max_confidence = 0.9;
  strong.mean_confidence = 0.8;
  strong.infobox_fraction = 0.5;
  strong.mean_source_quality = 0.9;
  strong.max_source_quality = 0.95;
  strong.distinct_domains = std::log1p(3.0);
  EvidenceFeatures weak;
  weak.log_support = std::log1p(1.0);
  weak.max_confidence = 0.5;
  weak.mean_confidence = 0.5;
  weak.mean_source_quality = 0.3;
  weak.max_source_quality = 0.3;
  weak.distinct_domains = std::log1p(1.0);
  EXPECT_GT(model.Predict(strong), model.Predict(weak));
}

TEST(CorroboratorTest, TrainingImprovesSeparation) {
  // Synthetic labeled data: correct groups have more support + quality.
  Rng rng(7);
  std::vector<std::pair<EvidenceFeatures, bool>> examples;
  for (int i = 0; i < 400; ++i) {
    const bool label = rng.Bernoulli(0.5);
    EvidenceFeatures ftr;
    const double base = label ? 0.7 : 0.3;
    ftr.log_support = std::log1p(label ? 2 + rng.Uniform(6)
                                       : rng.Uniform(3));
    ftr.max_confidence = base + rng.UniformDouble(-0.2, 0.2);
    ftr.mean_confidence = ftr.max_confidence - 0.05;
    ftr.infobox_fraction = label ? 0.5 : 0.1;
    ftr.mean_source_quality = base + rng.UniformDouble(-0.2, 0.2);
    ftr.max_source_quality = ftr.mean_source_quality + 0.1;
    ftr.recency = rng.NextDouble();
    ftr.distinct_domains = std::log1p(label ? 3.0 : 1.0);
    examples.emplace_back(ftr, label);
  }
  CorroborationModel model;
  model.Train(examples);
  EXPECT_NE(model.weights(), CorroborationModel().weights());  // trained
  int correct = 0;
  for (const auto& [ftr, label] : examples) {
    if ((model.Predict(ftr) >= 0.5) == label) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / examples.size(), 0.85);
}

TEST(CorroboratorTest, DecisionPicksBestGroupAndThresholds) {
  CorroborationModel model;
  ValueGroup strong;
  strong.value = kg::Value::Int(1);
  strong.features.log_support = std::log1p(6.0);
  strong.features.max_confidence = 0.95;
  strong.features.mean_confidence = 0.9;
  strong.features.infobox_fraction = 0.6;
  strong.features.mean_source_quality = 0.9;
  strong.features.max_source_quality = 0.95;
  strong.features.distinct_domains = std::log1p(4.0);
  ValueGroup weak;
  weak.value = kg::Value::Int(2);
  weak.features.max_confidence = 0.3;
  weak.features.mean_source_quality = 0.2;

  Corroborator corroborator(&model, Corroborator::Options());
  const auto decision = corroborator.Decide({weak, strong});
  EXPECT_EQ(decision.value, kg::Value::Int(1));
  EXPECT_EQ(decision.group_index, 1u);
  EXPECT_TRUE(decision.accepted);

  Corroborator::Options strict;
  strict.accept_threshold = 0.999;
  Corroborator picky(&model, strict);
  EXPECT_FALSE(picky.Decide({weak}).accepted);
  EXPECT_FALSE(picky.Decide({}).accepted);
}

// ---------- Pipeline end-to-end ----------

TEST(OdkePipelineTest, FillsWithheldFactsCorrectly) {
  OdkeFixture f = OdkeFixture::Make();
  websim::SearchEngine search(&f.corpus);
  CorroborationModel model;
  OdkePipeline pipeline(&f.gen.kg, &f.corpus, &search, nullptr, &model);

  const auto truth = f.TruthMap();
  // Process DOB gaps only (textual evidence exists for them).
  std::vector<FactGap> gaps;
  for (const auto& w : f.gen.withheld_facts) {
    if (w.predicate == f.gen.schema.date_of_birth) {
      gaps.push_back(FactGap{w.subject, w.predicate, GapReason::kProfiling,
                             kg::kInvalidTripleIdx});
    }
  }
  ASSERT_GT(gaps.size(), 5u);

  size_t filled = 0;
  size_t correct = 0;
  for (const auto& gap : gaps) {
    const GapResult result = pipeline.HarvestGap(gap);
    EXPECT_LT(result.docs_fetched, f.corpus.size() / 2)
        << "targeted search should fetch a small slice of the corpus";
    if (!result.filled) continue;
    ++filled;
    const auto it =
        truth.find(HashCombine(gap.subject.value(), gap.predicate.value()));
    ASSERT_NE(it, truth.end());
    if (result.value == it->second) ++correct;
  }
  EXPECT_GT(filled, gaps.size() / 2) << "too few gaps filled";
  EXPECT_GT(static_cast<double>(correct) / filled, 0.85)
      << "accepted facts too often wrong";
}

TEST(OdkePipelineTest, RunInsertsFactsWithProvenance) {
  OdkeFixture f = OdkeFixture::Make();
  websim::SearchEngine search(&f.corpus);
  CorroborationModel model;
  OdkePipeline pipeline(&f.gen.kg, &f.corpus, &search, nullptr, &model);

  std::vector<FactGap> gaps;
  for (const auto& w : f.gen.withheld_facts) {
    if (w.predicate == f.gen.schema.date_of_birth && gaps.size() < 10) {
      gaps.push_back(FactGap{w.subject, w.predicate, GapReason::kProfiling,
                             kg::kInvalidTripleIdx});
    }
  }
  const size_t before = f.gen.kg.num_triples();
  const OdkeRunStats stats = pipeline.Run(gaps);
  EXPECT_EQ(stats.gaps_processed, gaps.size());
  EXPECT_GT(stats.gaps_filled, 0u);
  EXPECT_EQ(f.gen.kg.num_triples(), before + stats.gaps_filled);

  // New facts carry the odke source.
  const auto odke_source = f.gen.kg.FindSource("odke");
  ASSERT_TRUE(odke_source.ok());
  size_t odke_facts = 0;
  f.gen.kg.triples().ForEach([&](kg::TripleIdx, const kg::Triple& t) {
    if (t.provenance.source == *odke_source) ++odke_facts;
  });
  EXPECT_EQ(odke_facts, stats.gaps_filled);
}

TEST(OdkePipelineTest, StaleFactsGetReplaced) {
  OdkeFixture f = OdkeFixture::Make();
  websim::SearchEngine search(&f.corpus);
  CorroborationModel model;
  OdkePipeline pipeline(&f.gen.kg, &f.corpus, &search, nullptr, &model);

  std::vector<FactGap> gaps;
  for (const auto& s : f.gen.stale_facts) {
    const kg::Triple& t = f.gen.kg.triples().triple(s.triple);
    if (t.predicate != f.gen.schema.date_of_birth) continue;
    gaps.push_back(
        FactGap{t.subject, t.predicate, GapReason::kStale, s.triple});
  }
  if (gaps.empty()) GTEST_SKIP() << "no stale DOB facts in this seed";

  const OdkeRunStats stats = pipeline.Run(gaps);
  EXPECT_GT(stats.stale_replaced, 0u);
  // Replaced triples are tombstoned.
  size_t tombstoned = 0;
  for (const auto& gap : gaps) {
    if (!f.gen.kg.triples().IsLive(gap.stale_triple)) ++tombstoned;
  }
  EXPECT_EQ(tombstoned, stats.stale_replaced);
}

TEST(OdkePipelineTest, TargetedSearchTouchesFarFewerDocs) {
  OdkeFixture f = OdkeFixture::Make();
  websim::SearchEngine search(&f.corpus);
  CorroborationModel model;

  OdkePipeline targeted(&f.gen.kg, &f.corpus, &search, nullptr, &model);
  OdkePipeline::Options scan_opts;
  scan_opts.targeted_search = false;
  OdkePipeline scan(&f.gen.kg, &f.corpus, &search, nullptr, &model,
                    scan_opts);

  ASSERT_FALSE(f.gen.withheld_facts.empty());
  const auto& w = f.gen.withheld_facts[0];
  FactGap gap{w.subject, w.predicate, GapReason::kProfiling,
              kg::kInvalidTripleIdx};
  size_t targeted_docs = 0;
  size_t scan_docs = 0;
  (void)targeted.ExtractCandidates(gap, &targeted_docs);
  (void)scan.ExtractCandidates(gap, &scan_docs);
  EXPECT_EQ(scan_docs, f.corpus.size());
  EXPECT_LT(targeted_docs * 5, scan_docs);
}

}  // namespace
}  // namespace saga::odke
