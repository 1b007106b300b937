#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <set>

#include "annotation/annotator.h"
#include "annotation/candidate_generator.h"
#include "annotation/context_reranker.h"
#include "annotation/mention_detector.h"
#include "annotation/web_linker.h"
#include "common/file_util.h"
#include "common/serialization.h"
#include "kg/kg_generator.h"
#include "reference_text.h"
#include "websim/corpus_generator.h"

namespace saga::annotation {
namespace {

kg::GeneratedKg MakeKg() {
  kg::KgGeneratorConfig config;
  config.num_persons = 100;
  config.num_movies = 30;
  config.num_songs = 20;
  config.num_teams = 6;
  config.num_bands = 8;
  config.num_cities = 12;
  config.ambiguous_name_fraction = 0.12;
  return kg::GenerateKg(config);
}

// ---------- MentionDetector ----------

TEST(MentionDetectorTest, FindsKnownAliases) {
  kg::GeneratedKg gen = MakeKg();
  MentionDetector detector(&gen.kg.catalog());
  const std::string& name = gen.kg.catalog().name(
      gen.kg.catalog().records().back().id);
  const std::string text = "Yesterday " + name + " appeared in public.";
  const auto mentions = detector.Detect(text);
  ASSERT_FALSE(mentions.empty());
  bool found = false;
  for (const Mention& m : mentions) {
    if (m.surface == name) found = true;
    EXPECT_EQ(text.substr(m.begin, m.end - m.begin), m.surface);
  }
  EXPECT_TRUE(found);
}

TEST(MentionDetectorTest, RespectsWordBoundaries) {
  kg::EntityCatalog cat;
  cat.AddEntity("Ann", {});
  MentionDetector detector(&cat);
  EXPECT_TRUE(detector.Detect("Annotations and bananas").empty());
  EXPECT_EQ(detector.Detect("I met Ann today").size(), 1u);
  EXPECT_EQ(detector.Detect("Ann, hello!").size(), 1u);
}

TEST(MentionDetectorTest, LongestMatchWinsOnOverlap) {
  kg::EntityCatalog cat;
  cat.AddEntity("New York", {});
  cat.AddEntity("York", {});
  MentionDetector detector(&cat);
  const auto mentions = detector.Detect("Flying to New York tomorrow");
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].surface, "New York");
}

TEST(MentionDetectorTest, CaseInsensitive) {
  kg::EntityCatalog cat;
  cat.AddEntity("Michael Jordan", {});
  MentionDetector detector(&cat);
  EXPECT_EQ(detector.Detect("MICHAEL JORDAN highlights").size(), 1u);
  EXPECT_EQ(detector.Detect("michael jordan highlights").size(), 1u);
}

TEST(MentionDetectorTest, MinSurfaceLengthFiltersShortAliases) {
  kg::EntityCatalog cat;
  cat.AddEntity("Al", {});
  cat.AddEntity("Albert", {});
  MentionDetector::Options opts;
  opts.min_surface_length = 3;
  MentionDetector detector(&cat, opts);
  EXPECT_TRUE(detector.Detect("Al went home").empty());
  EXPECT_EQ(detector.Detect("Albert went home").size(), 1u);
}

TEST(MentionDetectorTest, MentionsComeInReadingOrder) {
  kg::EntityCatalog cat;
  cat.AddEntity("Alice Cooper", {});
  cat.AddEntity("Bob Dylan", {});
  MentionDetector detector(&cat);
  const auto mentions =
      detector.Detect("Bob Dylan met Alice Cooper backstage");
  ASSERT_EQ(mentions.size(), 2u);
  EXPECT_EQ(mentions[0].surface, "Bob Dylan");
  EXPECT_EQ(mentions[1].surface, "Alice Cooper");
  EXPECT_LT(mentions[0].begin, mentions[1].begin);
}

// ---------- CandidateGenerator ----------

TEST(CandidateGeneratorTest, PriorsSumToOneAndSort) {
  kg::EntityCatalog cat;
  kg::EntityId popular = cat.AddEntity("Michael Jordan", {}, 0.9);
  kg::EntityId obscure = cat.AddEntity("Michael Jordan", {}, 0.05);
  CandidateGenerator gen(&cat);
  const auto cands = gen.Candidates("michael jordan");
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0].entity, popular);
  EXPECT_EQ(cands[1].entity, obscure);
  EXPECT_NEAR(cands[0].prior + cands[1].prior, 1.0, 1e-9);
  EXPECT_GT(cands[0].prior, cands[1].prior);
  EXPECT_TRUE(gen.Candidates("nobody knows").empty());
}

// ---------- ContextReranker ----------

TEST(ContextRerankerTest, ProfileMentionsGraphNeighborhood) {
  kg::GeneratedKg gen = MakeKg();
  ContextReranker reranker(&gen.kg);
  // An athlete's profile should contain their team's name.
  for (const auto& rec : gen.kg.catalog().records()) {
    const auto teams = gen.kg.ObjectsOf(rec.id, gen.schema.plays_for);
    if (teams.empty() || !teams[0].is_entity()) continue;
    const std::string profile = reranker.EntityProfileText(rec.id);
    EXPECT_NE(profile.find(gen.kg.catalog().name(teams[0].entity())),
              std::string::npos);
    break;
  }
}

TEST(ContextRerankerTest, DisambiguatesByContext) {
  // Two "Michael Jordan"s: a basketball player and a professor.
  kg::KnowledgeGraph kg;
  kg::SchemaHandles h = kg::InstallStandardSchema(&kg);
  const kg::SourceId src = kg.AddSource("test", 1.0);
  kg::EntityId player = kg.catalog().AddEntity(
      "Michael Jordan", {h.person, h.athlete}, 0.9, "basketball legend");
  kg::EntityId professor = kg.catalog().AddEntity(
      "Michael Jordan", {h.person, h.professor}, 0.3,
      "machine learning professor");
  kg::EntityId team =
      kg.catalog().AddEntity("Riverfield Bulls", {h.sports_team}, 0.5);
  kg::EntityId university = kg.catalog().AddEntity(
      "University of Brookdale", {h.university}, 0.4);
  kg.AddFact(player, h.plays_for, kg::Value::Entity(team), src);
  kg.AddFact(professor, h.works_at, kg::Value::Entity(university), src);

  ContextReranker reranker(&kg);
  CandidateGenerator cands(&kg.catalog());
  const auto candidates = cands.Candidates("michael jordan");
  ASSERT_EQ(candidates.size(), 2u);

  const std::string sports_text =
      "Michael Jordan scored 40 points as the Riverfield Bulls won the "
      "basketball game last night.";
  Mention m1{0, 14, "Michael Jordan"};
  const auto sports_ranked =
      reranker.Rerank(candidates, sports_text, m1, nullptr);
  EXPECT_EQ(sports_ranked[0].candidate.entity, player);

  const std::string academic_text =
      "Michael Jordan advised several students at the University of "
      "Brookdale machine learning professor lab.";
  const auto academic_ranked =
      reranker.Rerank(candidates, academic_text, m1, nullptr);
  EXPECT_EQ(academic_ranked[0].candidate.entity, professor);
}

TEST(ContextRerankerTest, CachedProfilesMatchOnTheFly) {
  kg::GeneratedKg gen = MakeKg();
  ContextReranker reranker(&gen.kg);
  auto dir = MakeTempDir("saga_profile_cache");
  ASSERT_TRUE(dir.ok());
  auto cache = serving::EmbeddingKvCache::Open(*dir, 1 << 16);
  ASSERT_TRUE(cache.ok());
  ASSERT_TRUE(reranker.PrecomputeProfiles(cache->get()).ok());

  CandidateGenerator cands(&gen.kg.catalog());
  const auto& any_group = gen.ambiguous_groups.empty()
                              ? std::vector<kg::EntityId>{kg::EntityId(0)}
                              : gen.ambiguous_groups[0];
  const std::string name = gen.kg.catalog().name(any_group[0]);
  const auto candidates = cands.Candidates(name);
  const std::string text = name + " was in the news today.";
  Mention m{0, name.size(), name};
  const auto cached = reranker.Rerank(candidates, text, m, cache->get());
  const auto fresh = reranker.Rerank(candidates, text, m, nullptr);
  ASSERT_EQ(cached.size(), fresh.size());
  for (size_t i = 0; i < cached.size(); ++i) {
    EXPECT_EQ(cached[i].candidate.entity, fresh[i].candidate.entity);
    EXPECT_NEAR(cached[i].score, fresh[i].score, 1e-6);
  }
  (void)RemoveDirRecursively(*dir);
}

TEST(ContextRerankerTest, ProfileEmbeddingsMatchReferenceBitForBit) {
  // The serving benchmark's KG size.
  kg::KgGeneratorConfig config;
  config.num_persons = 8000;
  kg::GeneratedKg gen = kg::GenerateKg(config);
  ContextReranker reranker(&gen.kg);
  const text::reference::Vectorizer ref(
      text::HashingVectorizer::Options{});
  size_t mismatches = 0;
  for (const auto& rec : gen.kg.catalog().records()) {
    const std::string profile = reranker.EntityProfileText(rec.id);
    const std::vector<float> got = reranker.vectorizer().Embed(profile);
    const std::vector<float> want = ref.Embed(profile);
    ASSERT_EQ(got.size(), want.size());
    if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float))) {
      ++mismatches;
    }
  }
  EXPECT_GT(gen.kg.catalog().records().size(), 8000u);
  EXPECT_EQ(mismatches, 0u);
}

// ---------- ContextReranker vs the old scoring code ----------

/// Seeded documents stitched from profile texts, so most candidates
/// share tokens with them and the scores are not trivially zero.
std::vector<std::string> SeededContexts(const ContextReranker& reranker,
                                        const kg::KnowledgeGraph& kg,
                                        uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  const size_t entities = kg.catalog().records().size();
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    std::string text;
    for (int k = 0; k < 3; ++k) {
      const std::string profile =
          reranker.EntityProfileText(kg::EntityId(rng() % entities));
      text += profile.substr(0, 40 + rng() % 120);
      text += ". ";
    }
    out.push_back(std::move(text));
  }
  return out;
}

struct ScoreCheck {
  size_t compared = 0;
  size_t nonzero = 0;
  size_t mismatches = 0;
};

/// Reranks every entity of `kg` against each context (the mention spans
/// the whole context, so the window is all of it) and compares each
/// context similarity, by its bits, with the old code's
/// Cosine(ref.Embed(context), ref.Embed(EntityProfileText(id))).
ScoreCheck CheckScoresAgainstReference(
    const ContextReranker& reranker, const kg::KnowledgeGraph& kg,
    const std::vector<std::string>& contexts) {
  const text::reference::Vectorizer ref(text::HashingVectorizer::Options{});
  std::vector<Candidate> all;
  std::vector<std::vector<float>> profiles;
  for (const auto& rec : kg.catalog().records()) {
    all.push_back(Candidate{rec.id, 0.5});
    profiles.push_back(ref.Embed(reranker.EntityProfileText(rec.id)));
  }
  ScoreCheck check;
  for (const std::string& context : contexts) {
    const Mention whole{0, context.size(), context};
    const std::vector<float> context_vec = ref.Embed(context);
    for (const auto& s : reranker.Rerank(all, context, whole, nullptr)) {
      const double want = text::HashingVectorizer::Cosine(
          context_vec, profiles[s.candidate.entity.value()]);
      ++check.compared;
      if (want != 0.0) ++check.nonzero;
      if (std::memcmp(&want, &s.context_similarity, sizeof(want)) != 0) {
        ++check.mismatches;
      }
    }
  }
  return check;
}

TEST(ContextRerankerTest, RerankScoresMatchReferenceOnServingKg) {
  kg::KgGeneratorConfig config;
  config.num_persons = 8000;  // the serving benchmark's KG
  const kg::GeneratedKg gen = kg::GenerateKg(config);
  ASSERT_GT(gen.kg.catalog().records().size(), 8000u);
  for (bool name_only : {false, true}) {
    ContextReranker::Options options;
    options.name_only_profiles = name_only;
    const ContextReranker reranker(&gen.kg, options);
    const ScoreCheck check = CheckScoresAgainstReference(
        reranker, gen.kg, SeededContexts(reranker, gen.kg, 2023, 17));
    EXPECT_EQ(check.compared, 17 * gen.kg.catalog().records().size());
    EXPECT_GT(check.nonzero, check.compared / 4) << "name_only " << name_only;
    EXPECT_EQ(check.mismatches, 0u) << "name_only " << name_only;
  }
}

TEST(ContextRerankerTest, RerankScoresMatchReferenceOnEdgeCases) {
  kg::KnowledgeGraph kg;
  const kg::SchemaHandles h = kg::InstallStandardSchema(&kg);
  const kg::SourceId src = kg.AddSource("test", 1.0);
  const std::string long_token(100, 'q');  // past the tokenizer's buffer
  const kg::EntityId no_description =
      kg.catalog().AddEntity("Ada Quill", {h.person}, 0.5, "");
  const kg::EntityId long_word = kg.catalog().AddEntity(
      "Bo " + long_token, {h.person, h.athlete}, 0.5,
      "plays " + long_token + "X ball");
  const kg::EntityId team =
      kg.catalog().AddEntity("Riverfield Bulls", {h.sports_team}, 0.5);
  // More than the 24 profiled triples; removing early ones shifts which
  // triples make the cut.
  std::vector<kg::TripleIdx> hub_facts;
  for (int i = 0; i < 30; ++i) {
    const kg::EntityId movie = kg.catalog().AddEntity(
        "Movie Number " + std::to_string(i), {h.movie}, 0.1);
    hub_facts.push_back(kg.AddFact(long_word, h.acted_in,
                                   kg::Value::Entity(movie), src));
  }
  kg.AddFact(long_word, h.plays_for, kg::Value::Entity(team), src);
  kg.AddFact(no_description, h.plays_for, kg::Value::Entity(team), src);
  const kg::TripleIdx removed =
      kg.AddFact(no_description, h.height_cm, kg::Value::Int(170), src);
  kg.triples().Remove(hub_facts[0]);
  kg.triples().Remove(hub_facts[7]);
  kg.triples().Remove(removed);

  const ContextReranker reranker(&kg);
  const std::string profile = reranker.EntityProfileText(long_word);
  EXPECT_EQ(profile.find("Movie Number 0 "), std::string::npos);
  EXPECT_NE(profile.find("Movie Number 25"), std::string::npos);
  const std::vector<std::string> contexts = {
      "Bo " + long_token + " plays for the Riverfield Bulls",
      long_token + "X ball and Movie Number 3 acted in",
      "Ada Quill plays for Riverfield Bulls, 170 cm tall",
      "",
  };
  const ScoreCheck check = CheckScoresAgainstReference(reranker, kg, contexts);
  EXPECT_GT(check.nonzero, 0u);
  EXPECT_EQ(check.mismatches, 0u);
}

// ---------- ContextReranker: cached profiles vs on the fly ----------

/// Reranks every entity of `kg` against each context, once through
/// `cache` and once on the fly, and counts the context similarities
/// whose bits differ.
size_t CachedScoreMismatches(const ContextReranker& reranker,
                             const kg::KnowledgeGraph& kg,
                             const std::vector<std::string>& contexts,
                             serving::EmbeddingKvCache* cache) {
  std::vector<Candidate> all;
  for (const auto& rec : kg.catalog().records()) {
    all.push_back(Candidate{rec.id, 0.5});
  }
  size_t mismatches = 0;
  std::vector<double> fresh(all.size());
  for (const std::string& context : contexts) {
    const Mention whole{0, context.size(), context};
    for (const auto& s : reranker.Rerank(all, context, whole, nullptr)) {
      fresh[s.candidate.entity.value()] = s.context_similarity;
    }
    for (const auto& s : reranker.Rerank(all, context, whole, cache)) {
      const double want = fresh[s.candidate.entity.value()];
      if (std::memcmp(&want, &s.context_similarity, sizeof(want)) != 0) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

// Every profile of the serving benchmark's KG, full and distilled,
// scored from memory hits (a budget that holds them all) and from disk
// hits (a budget that holds about 1%): bit-identical to on the fly.
TEST(ContextRerankerTest, CachedScoresMatchOnTheFlyOnServingKg) {
  kg::KgGeneratorConfig config;
  config.num_persons = 8000;
  const kg::GeneratedKg gen = kg::GenerateKg(config);
  const uint64_t profiles = gen.kg.catalog().records().size();
  for (bool name_only : {false, true}) {
    ContextReranker::Options options;
    options.name_only_profiles = name_only;
    const ContextReranker reranker(&gen.kg, options);
    const std::vector<std::string> contexts =
        SeededContexts(reranker, gen.kg, 2023, 5);
    for (size_t budget : {size_t{32} << 20, size_t{24} << 10}) {
      auto dir = MakeTempDir("saga_profile_cache_oracle");
      ASSERT_TRUE(dir.ok());
      auto cache = serving::EmbeddingKvCache::Open(*dir, budget);
      ASSERT_TRUE(cache.ok());
      ASSERT_TRUE(reranker.PrecomputeProfiles(cache->get()).ok());
      EXPECT_EQ(CachedScoreMismatches(reranker, gen.kg, contexts,
                                      cache->get()),
                0u)
          << "name_only " << name_only << " budget " << budget;
      const auto stats = (*cache)->stats();
      EXPECT_EQ(stats.misses, 0u);
      if (budget > (size_t{1} << 20)) {
        EXPECT_EQ(stats.disk_hits, profiles);  // the first context only
        EXPECT_EQ(stats.memory_hits, profiles * (contexts.size() - 1));
      } else {
        EXPECT_GT(stats.disk_hits, profiles * contexts.size() * 9 / 10);
      }
      (void)RemoveDirRecursively(*dir);
    }
  }
}

// Stored vectors the precompute step never writes still score like
// Cosine(context, stored): shorter and longer than the context, with
// -0.0f entries, all zero; and a value in the old dense format counts
// as a miss, so its candidate is scored on the fly.
TEST(ContextRerankerTest, CachedScoresMatchCosineOnEdgeCases) {
  kg::GeneratedKg gen = MakeKg();
  const ContextReranker reranker(&gen.kg);
  auto dir = MakeTempDir("saga_profile_cache_edges");
  ASSERT_TRUE(dir.ok());
  auto cache = serving::EmbeddingKvCache::Open(*dir, 1 << 20);
  ASSERT_TRUE(cache.ok());

  const std::string context = reranker.EntityProfileText(kg::EntityId(1)) +
                              " " + reranker.EntityProfileText(kg::EntityId(2));
  const Mention whole{0, context.size(), context};
  const std::vector<float> context_vec = reranker.vectorizer().Embed(context);
  ASSERT_EQ(context_vec.size(), 256u);

  std::vector<float> shorter(context_vec.begin(), context_vec.begin() + 100);
  std::vector<float> longer = context_vec;
  for (int i = 0; i < 44; ++i) longer.push_back(0.5f);
  std::vector<float> negative_zeros = context_vec;
  for (size_t i = 0; i < negative_zeros.size(); i += 3) {
    negative_zeros[i] = -0.0f;
  }
  const std::vector<std::vector<float>> stored = {
      shorter, longer, negative_zeros, std::vector<float>(256, 0.0f),
      std::vector<float>(256, -0.0f)};
  std::vector<Candidate> candidates;
  for (size_t i = 0; i < stored.size(); ++i) {
    const kg::EntityId id(i + 1);
    ASSERT_TRUE((*cache)->Put(id, stored[i]).ok());
    candidates.push_back(Candidate{id, 0.5});
  }
  // Entity 7 holds the dense format this cache used to write.
  std::string dense;
  BinaryWriter w(&dense);
  w.PutFloatVector(std::vector<float>(256, 1.0f));
  ASSERT_TRUE((*cache)->kv()->Put("emb:0000000000000007", dense).ok());
  candidates.push_back(Candidate{kg::EntityId(7), 0.5});

  std::vector<double> fresh(gen.kg.catalog().records().size());
  for (const auto& s : reranker.Rerank(candidates, context, whole, nullptr)) {
    fresh[s.candidate.entity.value()] = s.context_similarity;
  }
  for (int pass = 0; pass < 2; ++pass) {  // disk hits, then memory hits
    for (const auto& s :
         reranker.Rerank(candidates, context, whole, cache->get())) {
      const size_t i = s.candidate.entity.value();
      const double want =
          i == 7 ? fresh[7]
                 : text::HashingVectorizer::Cosine(context_vec, stored[i - 1]);
      EXPECT_EQ(std::memcmp(&want, &s.context_similarity, sizeof(want)), 0)
          << "entity " << i << " pass " << pass << ": " << want << " vs "
          << s.context_similarity;
    }
  }
  EXPECT_NE(fresh[7], 0.0);
  EXPECT_EQ((*cache)->stats().misses, 2u);  // entity 7, once a pass
  (void)RemoveDirRecursively(*dir);
}

/// The kernel under an idf-fitted vectorizer and a dimension that is
/// not a power of two (a modulo bucket, not a mask). Each profile is
/// split at every space, so the pieces join back to the profile text
/// and every word boundary is a piece boundary.
TEST(ContextRerankerTest, ProfilePiecesMatchReferenceWithIdfAndOddDim) {
  kg::KgGeneratorConfig config;
  config.num_persons = 8000;
  const kg::GeneratedKg gen = kg::GenerateKg(config);
  const ContextReranker reranker(&gen.kg);
  std::vector<std::string> profiles;
  for (const auto& rec : gen.kg.catalog().records()) {
    profiles.push_back(reranker.EntityProfileText(rec.id));
  }
  const std::vector<std::string> contexts =
      SeededContexts(reranker, gen.kg, 9001, 5);
  struct Variant {
    int dim;
    bool fitted;
  };
  for (const Variant v : {Variant{256, true}, Variant{100, false},
                          Variant{100, true}}) {
    text::HashingVectorizer::Options options;
    options.dim = v.dim;
    text::HashingVectorizer vec(options);
    text::reference::Vectorizer ref(options);
    if (v.fitted) {
      vec.FitDf(profiles);
      ref.FitDf(profiles);
    }
    std::vector<std::vector<float>> context_vecs;
    std::vector<std::vector<float>> ref_context_vecs;
    for (const std::string& c : contexts) {
      context_vecs.push_back(vec.Embed(c));
      ref_context_vecs.push_back(ref.Embed(c));
    }
    size_t mismatches = 0;
    text::SparseVector sparse;
    std::vector<std::string_view> pieces;
    for (const std::string& profile : profiles) {
      pieces.clear();
      for (size_t begin = 0;;) {
        const size_t end = std::min(profile.find(' ', begin), profile.size());
        pieces.emplace_back(profile.data() + begin, end - begin);
        if (end == profile.size()) break;
        begin = end + 1;
      }
      vec.EmbedPieces(pieces, &sparse);
      const std::vector<float> want_profile = ref.Embed(profile);
      for (size_t c = 0; c < contexts.size(); ++c) {
        const double want = text::HashingVectorizer::Cosine(
            ref_context_vecs[c], want_profile);
        const double got =
            text::HashingVectorizer::Dot(sparse, context_vecs[c]);
        if (std::memcmp(&want, &got, sizeof(want)) != 0) ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "dim " << v.dim << " fitted " << v.fitted;
  }
}

// ---------- Annotator end-to-end ----------

struct AnnotationQuality {
  double precision = 0.0;
  double recall = 0.0;
};

AnnotationQuality Evaluate(const kg::GeneratedKg& gen,
                           const websim::WebCorpus& corpus,
                           const Annotator& annotator, size_t max_docs) {
  size_t tp = 0;
  size_t fp = 0;
  size_t fn = 0;
  for (websim::DocId id = 0; id < std::min(corpus.size(), max_docs); ++id) {
    const websim::WebDocument& doc = corpus.doc(id);
    const auto annotations = annotator.Annotate(doc.body);
    std::set<std::tuple<size_t, size_t, uint64_t>> gold;
    for (const auto& g : doc.gold_mentions) {
      gold.insert({g.begin, g.end, g.entity.value()});
    }
    std::set<std::tuple<size_t, size_t, uint64_t>> predicted;
    for (const auto& a : annotations) {
      predicted.insert({a.mention.begin, a.mention.end, a.entity.value()});
    }
    for (const auto& p : predicted) {
      if (gold.count(p)) ++tp;
      else ++fp;
    }
    for (const auto& g : gold) {
      if (!predicted.count(g)) ++fn;
    }
  }
  AnnotationQuality q;
  q.precision = tp + fp == 0 ? 1.0 : static_cast<double>(tp) / (tp + fp);
  q.recall = tp + fn == 0 ? 1.0 : static_cast<double>(tp) / (tp + fn);
  return q;
}

TEST(AnnotatorTest, AccuratePresetHasHighQuality) {
  kg::GeneratedKg gen = MakeKg();
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 40;
  cc.num_noise_pages = 20;
  websim::WebCorpus corpus = websim::GenerateCorpus(gen, cc);
  Annotator annotator(&gen.kg, nullptr);
  const AnnotationQuality q = Evaluate(gen, corpus, annotator, 120);
  EXPECT_GT(q.precision, 0.85);
  EXPECT_GT(q.recall, 0.75);
}

TEST(AnnotatorTest, AccurateBeatsFastOnAmbiguousMentions) {
  kg::GeneratedKg gen = MakeKg();
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 30;
  cc.num_noise_pages = 10;
  websim::WebCorpus corpus = websim::GenerateCorpus(gen, cc);

  Annotator::Options fast_opts;
  fast_opts.preset = DeploymentPreset::kFast;
  Annotator fast(&gen.kg, nullptr, fast_opts);
  Annotator accurate(&gen.kg, nullptr);

  // Restrict scoring to gold mentions of ambiguous entities.
  std::set<uint64_t> ambiguous;
  for (const auto& group : gen.ambiguous_groups) {
    for (kg::EntityId e : group) ambiguous.insert(e.value());
  }
  ASSERT_FALSE(ambiguous.empty());

  auto accuracy_on_ambiguous = [&](const Annotator& annotator) {
    size_t correct = 0;
    size_t total = 0;
    for (websim::DocId id = 0; id < corpus.size(); ++id) {
      const websim::WebDocument& doc = corpus.doc(id);
      bool has_ambiguous = false;
      for (const auto& g : doc.gold_mentions) {
        if (ambiguous.count(g.entity.value())) has_ambiguous = true;
      }
      if (!has_ambiguous) continue;
      const auto annotations = annotator.Annotate(doc.body);
      for (const auto& g : doc.gold_mentions) {
        if (!ambiguous.count(g.entity.value())) continue;
        ++total;
        for (const auto& a : annotations) {
          if (a.mention.begin == g.begin && a.mention.end == g.end) {
            if (a.entity == g.entity) ++correct;
            break;
          }
        }
      }
    }
    return total == 0 ? 0.0 : static_cast<double>(correct) / total;
  };

  const double fast_acc = accuracy_on_ambiguous(fast);
  const double accurate_acc = accuracy_on_ambiguous(accurate);
  EXPECT_GE(accurate_acc, fast_acc);
  EXPECT_GT(accurate_acc, 0.6);
}

TEST(AnnotatorTest, AssignsMostSpecificType) {
  kg::GeneratedKg gen = MakeKg();
  Annotator annotator(&gen.kg, nullptr);
  // Find an athlete and annotate a mention of them.
  for (const auto& rec : gen.kg.catalog().records()) {
    if (!gen.kg.catalog().HasType(rec.id, gen.schema.athlete)) continue;
    if (gen.kg.catalog().LookupAlias(rec.canonical_name).size() != 1) {
      continue;  // skip namesakes for determinism
    }
    const auto annotations =
        annotator.Annotate("We watched " + rec.canonical_name + " play.");
    ASSERT_FALSE(annotations.empty());
    EXPECT_EQ(annotations[0].type, gen.schema.athlete);
    return;
  }
  FAIL() << "no unambiguous athlete found";
}

TEST(AnnotatorTest, MinScoreGateDropsWeakAnnotations) {
  kg::GeneratedKg gen = MakeKg();
  Annotator::Options strict;
  strict.preset = DeploymentPreset::kFast;
  strict.min_score = 10.0;  // impossible bar: everything is NIL
  Annotator gated(&gen.kg, nullptr, strict);
  Annotator open(&gen.kg, nullptr);
  const std::string text =
      "A story about " + gen.kg.catalog().records().back().canonical_name +
      " today.";
  EXPECT_TRUE(gated.Annotate(text).empty());
  EXPECT_FALSE(open.Annotate(text).empty());
}

TEST(AnnotatorTest, RefreshSurfacesNewlyAddedEntities) {
  kg::GeneratedKg gen = MakeKg();
  Annotator annotator(&gen.kg, nullptr);
  const std::string text = "Breaking: Zanthor Quuxley wins the award";
  EXPECT_TRUE(annotator.Annotate(text).empty());

  // A new entity enters the continuously-growing KG.
  gen.kg.catalog().AddEntity("Zanthor Quuxley", {gen.schema.person}, 0.5);
  // The compiled gazetteer is stale until refreshed (§3.2 freshness).
  EXPECT_TRUE(annotator.Annotate(text).empty());
  annotator.RefreshGazetteer();
  const auto annotations = annotator.Annotate(text);
  ASSERT_EQ(annotations.size(), 1u);
  EXPECT_EQ(gen.kg.catalog().name(annotations[0].entity),
            "Zanthor Quuxley");
}

// ---------- Web linker ----------

TEST(WebLinkerTest, AddsEntityDocEdgesToKg) {
  kg::GeneratedKg gen = MakeKg();
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 20;
  cc.num_noise_pages = 5;
  websim::WebCorpus corpus = websim::GenerateCorpus(gen, cc);
  Annotator annotator(&gen.kg, nullptr);
  const size_t triples_before = gen.kg.num_triples();

  IncrementalWebLinker linker(&annotator, &gen.kg);
  const auto stats = linker.AnnotateCorpus(corpus);
  EXPECT_EQ(stats.docs_scanned, corpus.size());
  EXPECT_EQ(stats.docs_annotated, corpus.size());
  EXPECT_EQ(stats.docs_skipped, 0u);
  EXPECT_GT(stats.annotations, 0u);
  EXPECT_GT(gen.kg.num_triples(), triples_before);
  EXPECT_GT(linker.index().num_entity_doc_edges(), 0u);
}

TEST(WebLinkerTest, SecondPassSkipsUnchangedDocs) {
  kg::GeneratedKg gen = MakeKg();
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 20;
  cc.num_noise_pages = 5;
  websim::WebCorpus corpus = websim::GenerateCorpus(gen, cc);
  Annotator annotator(&gen.kg, nullptr);
  IncrementalWebLinker linker(&annotator, &gen.kg);
  (void)linker.AnnotateCorpus(corpus);

  const auto second = linker.AnnotateCorpus(corpus);
  EXPECT_EQ(second.docs_annotated, 0u);
  EXPECT_EQ(second.docs_skipped, corpus.size());

  // Mutate 10% and re-run: only those are processed.
  Rng rng(5);
  const auto changed = websim::MutateCorpus(&corpus, 0.1, &rng);
  const auto third = linker.AnnotateCorpus(corpus);
  EXPECT_EQ(third.docs_annotated, changed.size());
  EXPECT_EQ(third.docs_skipped, corpus.size() - changed.size());
}

TEST(WebLinkerTest, ParallelAnnotationMatchesSerial) {
  kg::GeneratedKg gen = MakeKg();
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 15;
  cc.num_noise_pages = 5;
  websim::WebCorpus corpus = websim::GenerateCorpus(gen, cc);
  Annotator annotator(&gen.kg, nullptr);

  kg::KgGeneratorConfig same_config;  // fresh KGs so edges don't mix
  same_config.num_persons = 100;
  same_config.num_movies = 30;
  same_config.num_songs = 20;
  same_config.num_teams = 6;
  same_config.num_bands = 8;
  same_config.num_cities = 12;
  same_config.ambiguous_name_fraction = 0.12;
  kg::GeneratedKg gen2 = kg::GenerateKg(same_config);

  IncrementalWebLinker serial(&annotator, &gen2.kg);
  const auto serial_stats = serial.AnnotateCorpus(corpus);

  kg::GeneratedKg gen3 = kg::GenerateKg(same_config);
  ThreadPool pool(3);
  IncrementalWebLinker parallel(&annotator, &gen3.kg, &pool);
  const auto parallel_stats = parallel.AnnotateCorpus(corpus);

  EXPECT_EQ(parallel_stats.docs_annotated, serial_stats.docs_annotated);
  EXPECT_EQ(parallel_stats.annotations, serial_stats.annotations);
  for (websim::DocId id = 0; id < corpus.size(); ++id) {
    const auto* a = serial.index().ForDoc(id);
    const auto* b = parallel.index().ForDoc(id);
    ASSERT_EQ(a == nullptr, b == nullptr);
    if (a == nullptr) continue;
    ASSERT_EQ(a->annotations.size(), b->annotations.size());
    for (size_t i = 0; i < a->annotations.size(); ++i) {
      EXPECT_EQ(a->annotations[i].entity, b->annotations[i].entity);
      EXPECT_EQ(a->annotations[i].mention.begin,
                b->annotations[i].mention.begin);
    }
  }
}

TEST(WebLinkerTest, IndexMapsEntitiesToDocs) {
  kg::GeneratedKg gen = MakeKg();
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 10;
  cc.num_noise_pages = 0;
  websim::WebCorpus corpus = websim::GenerateCorpus(gen, cc);
  Annotator annotator(&gen.kg, nullptr);
  IncrementalWebLinker linker(&annotator, &gen.kg);
  (void)linker.AnnotateCorpus(corpus);

  // Every doc in the index round-trips.
  for (websim::DocId id = 0; id < corpus.size(); ++id) {
    const AnnotatedDocument* ann = linker.index().ForDoc(id);
    ASSERT_NE(ann, nullptr);
    for (const Annotation& a : ann->annotations) {
      const auto& docs = linker.index().DocsMentioning(a.entity);
      EXPECT_TRUE(std::find(docs.begin(), docs.end(), id) != docs.end());
    }
  }
}

TEST(AnnotationIndexTest, SetAndRemoveMaintainEntityDocsInDocOrder) {
  auto doc = [](websim::DocId id, std::vector<uint64_t> entities) {
    AnnotatedDocument d;
    d.doc = id;
    for (uint64_t e : entities) {
      Annotation a;
      a.entity = kg::EntityId(e);
      d.annotations.push_back(a);
    }
    return d;
  };
  using Docs = std::vector<websim::DocId>;
  AnnotationIndex index;
  index.Set(doc(7, {1, 2, 1}));
  index.Set(doc(3, {1}));
  index.Set(doc(5, {2, 3}));
  EXPECT_EQ(index.DocsMentioning(kg::EntityId(1)), (Docs{3, 7}));
  EXPECT_EQ(index.DocsMentioning(kg::EntityId(2)), (Docs{5, 7}));
  EXPECT_EQ(index.num_entity_doc_edges(), 6u);

  // Re-annotating a doc replaces its edges.
  index.Set(doc(7, {3}));
  EXPECT_EQ(index.DocsMentioning(kg::EntityId(1)), (Docs{3}));
  EXPECT_EQ(index.DocsMentioning(kg::EntityId(2)), (Docs{5}));
  EXPECT_EQ(index.DocsMentioning(kg::EntityId(3)), (Docs{5, 7}));

  index.Remove(5);
  index.Remove(5);  // absent: no-op
  EXPECT_TRUE(index.DocsMentioning(kg::EntityId(2)).empty());
  EXPECT_EQ(index.DocsMentioning(kg::EntityId(3)), (Docs{7}));
  EXPECT_EQ(index.num_entity_doc_edges(), 2u);
  EXPECT_EQ(index.num_annotated_docs(), 2u);
}

}  // namespace
}  // namespace saga::annotation
