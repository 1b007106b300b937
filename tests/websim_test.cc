#include <gtest/gtest.h>

#include <set>

#include "kg/kg_generator.h"
#include "websim/corpus_generator.h"
#include "websim/search_engine.h"

namespace saga::websim {
namespace {

kg::GeneratedKg MakeKg() {
  kg::KgGeneratorConfig config;
  config.num_persons = 100;
  config.num_movies = 30;
  config.num_songs = 20;
  config.num_teams = 6;
  config.num_bands = 8;
  config.num_cities = 12;
  return kg::GenerateKg(config);
}

CorpusGeneratorConfig SmallCorpusConfig() {
  CorpusGeneratorConfig config;
  config.num_news_pages = 60;
  config.num_noise_pages = 30;
  return config;
}

// ---------- Dates ----------

TEST(DateTextTest, RenderKnownDate) {
  EXPECT_EQ(RenderDateLong(kg::Date::FromYmd(1979, 7, 23)),
            "July 23, 1979");
  EXPECT_EQ(RenderDateLong(kg::Date::FromYmd(2001, 1, 1)),
            "January 1, 2001");
}

TEST(DateTextTest, ParseRoundTrip) {
  kg::Date d;
  ASSERT_TRUE(ParseDateLong("July 23, 1979", &d));
  EXPECT_EQ(d, kg::Date::FromYmd(1979, 7, 23));
  ASSERT_TRUE(ParseDateLong("December 31, 1999 and more text", &d));
  EXPECT_EQ(d, kg::Date::FromYmd(1999, 12, 31));
}

TEST(DateTextTest, ParseRejectsGarbage) {
  kg::Date d;
  EXPECT_FALSE(ParseDateLong("Smarch 5, 1999", &d));
  EXPECT_FALSE(ParseDateLong("July 1979", &d));
  EXPECT_FALSE(ParseDateLong("", &d));
  EXPECT_FALSE(ParseDateLong("July xx, 1979", &d));
}

class DateRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(DateRoundTrip, AllMonths) {
  const kg::Date d = kg::Date::FromYmd(1990, GetParam(), 15);
  kg::Date parsed;
  ASSERT_TRUE(ParseDateLong(RenderDateLong(d), &parsed));
  EXPECT_EQ(parsed, d);
}

INSTANTIATE_TEST_SUITE_P(Months, DateRoundTrip, ::testing::Range(1, 13));

// ---------- Corpus generation ----------

TEST(CorpusTest, DeterministicAndNonEmpty) {
  kg::GeneratedKg gen = MakeKg();
  WebCorpus a = GenerateCorpus(gen, SmallCorpusConfig());
  WebCorpus b = GenerateCorpus(gen, SmallCorpusConfig());
  ASSERT_GT(a.size(), 100u);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.doc(0).body, b.doc(0).body);
  EXPECT_EQ(a.doc(a.size() - 1).url, b.doc(b.size() - 1).url);
}

TEST(CorpusTest, GoldMentionSpansMatchText) {
  kg::GeneratedKg gen = MakeKg();
  WebCorpus corpus = GenerateCorpus(gen, SmallCorpusConfig());
  size_t mentions_checked = 0;
  for (DocId id = 0; id < corpus.size(); ++id) {
    const WebDocument& doc = corpus.doc(id);
    for (const GoldMention& m : doc.gold_mentions) {
      ASSERT_LE(m.end, doc.body.size());
      const std::string surface = doc.body.substr(m.begin, m.end - m.begin);
      // The span must be one of the entity's registered aliases.
      const auto& aliases = gen.kg.catalog().record(m.entity).aliases;
      EXPECT_TRUE(std::find(aliases.begin(), aliases.end(), surface) !=
                  aliases.end())
          << surface << " not an alias of "
          << gen.kg.catalog().name(m.entity);
      ++mentions_checked;
    }
  }
  EXPECT_GT(mentions_checked, 500u);
}

TEST(CorpusTest, EvidenceExistsForWithheldFacts) {
  kg::GeneratedKg gen = MakeKg();
  WebCorpus corpus = GenerateCorpus(gen, SmallCorpusConfig());
  // For a withheld DOB fact there should exist at least one document
  // whose body or infobox carries the true value.
  size_t with_evidence = 0;
  size_t dob_withheld = 0;
  for (const auto& fact : gen.withheld_facts) {
    if (fact.predicate != gen.schema.date_of_birth) continue;
    ++dob_withheld;
    const std::string iso = fact.object.date_value().ToString();
    const std::string longform = RenderDateLong(fact.object.date_value());
    bool found = false;
    for (DocId id = 0; id < corpus.size(); ++id) {
      const WebDocument& doc = corpus.doc(id);
      if (doc.body.find(longform) != std::string::npos) {
        found = true;
        break;
      }
      for (const auto& [k, v] : doc.infobox) {
        if (v == iso) {
          found = true;
          break;
        }
      }
      if (found) break;
    }
    if (found) ++with_evidence;
  }
  ASSERT_GT(dob_withheld, 0u);
  // wrong_fact_rate can corrupt some pages, but most withheld facts
  // must be recoverable from the corpus.
  EXPECT_GT(with_evidence, dob_withheld * 7 / 10);
}

TEST(CorpusTest, QualityVariesAcrossDomains) {
  kg::GeneratedKg gen = MakeKg();
  WebCorpus corpus = GenerateCorpus(gen, SmallCorpusConfig());
  std::set<std::string> domains;
  double min_q = 1.0;
  double max_q = 0.0;
  for (DocId id = 0; id < corpus.size(); ++id) {
    const WebDocument& doc = corpus.doc(id);
    domains.insert(doc.domain);
    min_q = std::min(min_q, doc.quality);
    max_q = std::max(max_q, doc.quality);
  }
  EXPECT_GE(domains.size(), 4u);
  EXPECT_LT(min_q, 0.4);
  EXPECT_GT(max_q, 0.8);
}

TEST(CorpusTest, NoisePagesHaveNoGoldMentions) {
  kg::GeneratedKg gen = MakeKg();
  WebCorpus corpus = GenerateCorpus(gen, SmallCorpusConfig());
  size_t noise_docs = 0;
  for (DocId id = 0; id < corpus.size(); ++id) {
    const WebDocument& doc = corpus.doc(id);
    if (doc.url.find("/misc/") != std::string::npos) {
      EXPECT_TRUE(doc.gold_mentions.empty());
      ++noise_docs;
    }
  }
  EXPECT_EQ(noise_docs, 30u);
}

TEST(CorpusTest, MutateChangesRequestedFraction) {
  kg::GeneratedKg gen = MakeKg();
  WebCorpus corpus = GenerateCorpus(gen, SmallCorpusConfig());
  Rng rng(5);
  const auto changed = MutateCorpus(&corpus, 0.2, &rng);
  EXPECT_NEAR(static_cast<double>(changed.size()),
              0.2 * static_cast<double>(corpus.size()),
              0.1 * static_cast<double>(corpus.size()));
  for (DocId id : changed) {
    EXPECT_EQ(corpus.doc(id).version, 1u);
    EXPECT_NE(corpus.doc(id).body.find("Update 1"), std::string::npos);
  }
}

// ---------- Search ----------

TEST(SearchTest, FindsEntityPageByName) {
  kg::GeneratedKg gen = MakeKg();
  WebCorpus corpus = GenerateCorpus(gen, SmallCorpusConfig());
  SearchEngine engine(&corpus);

  // Query by a person's name: their biography page should rank top-5.
  int found = 0;
  int tried = 0;
  for (const auto& rec : gen.kg.catalog().records()) {
    if (!gen.kg.catalog().HasType(rec.id, gen.schema.person)) continue;
    if (++tried > 20) break;
    const auto hits = engine.Search(rec.canonical_name, 5);
    for (const auto& hit : hits) {
      const WebDocument& doc = corpus.doc(hit.doc);
      bool about = false;
      for (const GoldMention& m : doc.gold_mentions) {
        if (m.entity == rec.id) about = true;
      }
      if (about) {
        ++found;
        break;
      }
    }
  }
  EXPECT_GT(found, 14) << "search rarely finds the entity's own pages";
}

TEST(SearchTest, ScoresAreSortedAndBounded) {
  kg::GeneratedKg gen = MakeKg();
  WebCorpus corpus = GenerateCorpus(gen, SmallCorpusConfig());
  SearchEngine engine(&corpus);
  const auto hits = engine.Search("born July", 10);
  ASSERT_FALSE(hits.empty());
  EXPECT_LE(hits.size(), 10u);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].score, hits[i].score);
  }
}

TEST(SearchTest, TitleTermsOutrankBodyTerms) {
  kg::GeneratedKg gen = MakeKg();
  WebCorpus corpus;
  WebDocument title_doc;
  title_doc.title = "zugzwang chronicles";
  title_doc.body = "completely unrelated prose about gardens.";
  WebDocument body_doc;
  body_doc.title = "garden notes";
  body_doc.body = "the word zugzwang appears once in this long body "
                  "with many many other words to dilute it.";
  corpus.Add(std::move(title_doc));
  corpus.Add(std::move(body_doc));
  SearchEngine engine(&corpus);
  const auto hits = engine.Search("zugzwang", 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc, 0u) << "title match should outrank body match";
}

TEST(SearchTest, UnknownTermsReturnNothing) {
  kg::GeneratedKg gen = MakeKg();
  WebCorpus corpus = GenerateCorpus(gen, SmallCorpusConfig());
  SearchEngine engine(&corpus);
  EXPECT_TRUE(engine.Search("xyzzyplugh", 5).empty());
  EXPECT_TRUE(engine.Search("", 5).empty());
}

}  // namespace
}  // namespace saga::websim
