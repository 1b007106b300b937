#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <random>
#include <set>
#include <string>

#include "common/hash.h"
#include "reference_text.h"
#include "text/aho_corasick.h"
#include "text/hashing_vectorizer.h"
#include "text/similarity.h"
#include "text/tokenizer.h"

namespace saga::text {
namespace {

// ---------- Tokenizer ----------

TEST(TokenizerTest, BasicTokensWithSpans) {
  const std::string s = "Michael Jordan, stats!";
  auto tokens = Tokenize(s);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "michael");
  EXPECT_TRUE(tokens[0].capitalized);
  EXPECT_EQ(s.substr(tokens[0].begin, tokens[0].end - tokens[0].begin),
            "Michael");
  EXPECT_EQ(tokens[1].text, "jordan");
  EXPECT_EQ(tokens[2].text, "stats");
  EXPECT_FALSE(tokens[2].capitalized);
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("..., --- !!").empty());
}

TEST(TokenizerTest, ApostrophesStayInTokens) {
  auto tokens = Tokenize("O'Brien's book");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, "o'brien's");
}

TEST(TokenizerTest, SplitSentences) {
  auto sentences =
      SplitSentences("First one. Second here! Third? trailing bit");
  ASSERT_EQ(sentences.size(), 4u);
  EXPECT_EQ(sentences[0], "First one.");
  EXPECT_EQ(sentences[3], " trailing bit");
}

TEST(TokenizerTest, AbbreviationDotMidWordIsNotBreak) {
  // "3.5" has no whitespace after the dot -> one sentence.
  auto sentences = SplitSentences("Version 3.5 shipped.");
  EXPECT_EQ(sentences.size(), 1u);
}

TEST(TokenizerTest, NormalizedTokenString) {
  EXPECT_EQ(NormalizedTokenString("  Michael   JORDAN!"), "michael jordan");
  EXPECT_EQ(NormalizedTokenString(""), "");
}

// ---------- Similarity ----------

TEST(SimilarityTest, EditDistanceKnownValues) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("same", "same"), 0u);
}

TEST(SimilarityTest, EditSimilarityNormalized) {
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("ab", "ab"), 1.0);
  EXPECT_NEAR(EditSimilarity("abcd", "abce"), 0.75, 1e-9);
}

TEST(SimilarityTest, JaroWinklerProperties) {
  EXPECT_DOUBLE_EQ(JaroWinkler("tim", "tim"), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinkler("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinkler("a", ""), 0.0);
  // Prefix boost: shared prefixes score higher.
  EXPECT_GT(JaroWinkler("timothy", "timofey"),
            JaroWinkler("timothy", "yhtomit"));
  EXPECT_GT(JaroWinkler("martha", "marhta"), 0.9);  // classic example
  // Symmetry.
  EXPECT_NEAR(JaroWinkler("dwayne", "duane"), JaroWinkler("duane", "dwayne"),
              1e-12);
}

TEST(SimilarityTest, TokenJaccard) {
  EXPECT_DOUBLE_EQ(TokenJaccard("a b c", "a b c"), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("a b", "c d"), 0.0);
  EXPECT_NEAR(TokenJaccard("a b c", "b c d"), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(TokenJaccard("", ""), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("Tim Chen", "tim CHEN"), 1.0);
}

// ---------- HashingVectorizer ----------

TEST(VectorizerTest, EmbeddingIsNormalizedAndDeterministic) {
  HashingVectorizer vec;
  auto a = vec.Embed("knowledge graphs at scale");
  auto b = vec.Embed("knowledge graphs at scale");
  EXPECT_EQ(a, b);
  double norm = 0.0;
  for (float v : a) norm += static_cast<double>(v) * v;
  EXPECT_NEAR(norm, 1.0, 1e-5);
}

TEST(VectorizerTest, EmptyTextIsZeroVector) {
  HashingVectorizer vec;
  auto z = vec.Embed("");
  for (float v : z) EXPECT_EQ(v, 0.0f);
}

TEST(VectorizerTest, SimilarTextsScoreHigherThanUnrelated) {
  HashingVectorizer vec;
  auto basketball1 = vec.Embed("basketball player team championship game");
  auto basketball2 = vec.Embed("the basketball team won the game");
  auto cooking = vec.Embed("recipe oven butter flour sugar");
  EXPECT_GT(HashingVectorizer::Cosine(basketball1, basketball2),
            HashingVectorizer::Cosine(basketball1, cooking));
}

TEST(VectorizerTest, SelfSimilarityIsMaximal) {
  HashingVectorizer vec;
  auto a = vec.Embed("some unique text here");
  EXPECT_NEAR(HashingVectorizer::Cosine(a, a), 1.0, 1e-5);
}

TEST(VectorizerTest, IdfDownweightsCommonTokens) {
  HashingVectorizer::Options opts;
  opts.use_bigrams = false;
  HashingVectorizer vec(opts);
  std::vector<std::string> corpus;
  for (int i = 0; i < 50; ++i) {
    corpus.push_back("the common filler text number " + std::to_string(i));
  }
  corpus.push_back("zebra quasar");
  vec.FitDf(corpus);
  // Document sharing only the ubiquitous token "the" should be less
  // similar than one sharing the rare token "zebra".
  auto query = vec.Embed("zebra the");
  auto rare_doc = vec.Embed("zebra stripes");
  auto common_doc = vec.Embed("the filler");
  EXPECT_GT(HashingVectorizer::Cosine(query, rare_doc),
            HashingVectorizer::Cosine(query, common_doc));
}

TEST(VectorizerTest, DimensionIsConfigurable) {
  HashingVectorizer::Options opts;
  opts.dim = 64;
  HashingVectorizer vec(opts);
  EXPECT_EQ(vec.Embed("x").size(), 64u);
  EXPECT_EQ(vec.dim(), 64);
}

// ---------- Oracle: tokenizer and embedder vs the reference ----------

// Seeded text mixing both letter cases, digits, apostrophes,
// punctuation, bytes 0x80-0xFF and tokens longer than the tokenizer's
// inline buffer; zero pieces give the empty text.
std::string RandomText(std::mt19937_64& rng) {
  static constexpr std::string_view kLetters =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
  static constexpr std::string_view kLower = kLetters.substr(0, 26);
  static constexpr std::string_view kPunct = " \t\n.,;:!?-_()\"/&";
  auto pick = [&](std::string_view from) { return from[rng() % from.size()]; };
  std::string s;
  const size_t pieces = rng() % 40;
  for (size_t p = 0; p < pieces; ++p) {
    const size_t len = 1 + rng() % 9;
    switch (rng() % 10) {
      case 0:  // lowercase word
        for (size_t i = 0; i < len; ++i) s.push_back(pick(kLower));
        break;
      case 1:  // capitalized word
        s.push_back(pick(kLetters.substr(26)));
        for (size_t i = 0; i < len; ++i) s.push_back(pick(kLower));
        break;
      case 2:  // mixed case with digits
        for (size_t i = 0; i < len; ++i) {
          s.push_back(rng() % 3 == 0 ? pick("0123456789") : pick(kLetters));
        }
        break;
      case 3:  // apostrophes
        s += rng() % 2 ? "O'Brien's" : "'tis'";
        break;
      case 4:  // punctuation run
        for (size_t i = 0; i < len % 3 + 1; ++i) s.push_back(pick(kPunct));
        break;
      case 5:  // high bytes, alone or glued to letters
        for (size_t i = 0; i < len % 4 + 1; ++i) {
          s.push_back(static_cast<char>(0x80 + rng() % 0x80));
          if (rng() % 2) s.push_back(pick(kLetters));
        }
        break;
      case 6:  // around and beyond the inline buffer (64 bytes)
        for (size_t i = 0, n = 60 + rng() % 150; i < n; ++i) {
          s.push_back(pick(kLetters));
        }
        break;
      case 7:  // digits
        for (size_t i = 0; i < len; ++i) s.push_back(pick("0123456789"));
        break;
      default: {  // repeats from a small vocabulary pile many adds onto
                  // a few dimensions, where the float add order shows
        static constexpr std::string_view kVocab[] = {
            "the", "film", "Team", "of", "born", "in", "city", "song"};
        for (size_t i = 0; i < len; ++i) {
          s += kVocab[rng() % std::size(kVocab)];
          s.push_back(' ');
        }
        break;
      }
    }
    if (rng() % 3 != 0) s.push_back(rng() % 2 ? ' ' : pick(kPunct));
  }
  return s;
}

std::vector<std::string> RandomTexts(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<std::string> texts = {"", "   ", std::string(64, 'A'),
                                    std::string(65, 'b'),
                                    "a" + std::string(300, 'Z')};
  while (texts.size() < n) texts.push_back(RandomText(rng));
  return texts;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(TextOracleTest, TokenizeMatchesReference) {
  for (const std::string& text : RandomTexts(17, 3000)) {
    const std::vector<Token> got = Tokenize(text);
    const std::vector<Token> want = reference::Tokenize(text);
    ASSERT_EQ(got.size(), want.size()) << text;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].text, want[i].text);
      EXPECT_EQ(got[i].begin, want[i].begin);
      EXPECT_EQ(got[i].end, want[i].end);
      EXPECT_EQ(got[i].capitalized, want[i].capitalized);
    }
  }
}

TEST(TextOracleTest, BigramHashStreamsFnv) {
  for (const auto& [a, b] : {std::pair<std::string, std::string>{"x", "y"},
                             {"michael", "jordan"},
                             {"", "z"},
                             {"o'brien", ""}}) {
    EXPECT_EQ(Hash64(a + "_" + b),
              Hash64(b, Hash64(std::string_view("_"), Hash64(a))));
    EXPECT_EQ(Hash64(a + "_" + b),
              Hash64(b, (Hash64(a) ^ '_') * 0x100000001B3ULL));
  }
}

// Unfitted, every weight is +-1 or +-0.5 and the sums are exact in any
// order; only the fitted idf weights pin the float add order.
TEST(TextOracleTest, EmbedMatchesReferenceBitForBit) {
  const std::vector<std::string> corpus = RandomTexts(5, 300);
  const std::vector<std::string> texts = RandomTexts(29, 1500);
  enum class Idf { kUnfitted, kFitted, kFittedButOff };
  for (int dim : {64, 100, 256}) {
    for (bool bigrams : {true, false}) {
      for (Idf idf : {Idf::kUnfitted, Idf::kFitted, Idf::kFittedButOff}) {
        HashingVectorizer::Options opts;
        opts.dim = dim;
        opts.use_bigrams = bigrams;
        opts.use_idf = idf != Idf::kFittedButOff;
        HashingVectorizer vec(opts);
        reference::Vectorizer ref(opts);
        if (idf != Idf::kUnfitted) {
          vec.FitDf(corpus);
          ref.FitDf(corpus);
        }
        size_t mismatches = 0;
        for (const std::string& text : texts) {
          if (!SameBits(vec.Embed(text), ref.Embed(text))) ++mismatches;
        }
        EXPECT_EQ(mismatches, 0u) << "dim " << dim << " bigrams " << bigrams
                                  << " idf " << static_cast<int>(idf);
      }
    }
  }
}

/// `text` cut at a seeded choice of its spaces, which the cuts drop:
/// the pieces join back to `text` with " ".
std::vector<std::string_view> PiecesAtSpaces(std::string_view text,
                                             std::mt19937_64& rng) {
  std::vector<std::string_view> pieces;
  size_t begin = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == ' ' && rng() % 2 == 0) {
      pieces.push_back(text.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  pieces.push_back(text.substr(begin));
  return pieces;
}

// The sparse kernel over pieces against the reference over the joined
// text: the same vector (as ToDense), ascending indexes, and Dot equal
// to the dense Cosine bit for bit.
TEST(TextOracleTest, EmbedPiecesMatchesJoinedReference) {
  const std::vector<std::string> corpus = RandomTexts(5, 300);
  const std::vector<std::string> texts = RandomTexts(31, 1500);
  for (int dim : {64, 100, 256}) {
    for (bool bigrams : {true, false}) {
      for (bool fitted : {false, true}) {
        HashingVectorizer::Options opts;
        opts.dim = dim;
        opts.use_bigrams = bigrams;
        HashingVectorizer vec(opts);
        reference::Vectorizer ref(opts);
        if (fitted) {
          vec.FitDf(corpus);
          ref.FitDf(corpus);
        }
        std::mt19937_64 rng(dim * 4 + bigrams * 2 + fitted);
        size_t mismatches = 0;
        SparseVector sparse;
        for (size_t t = 0; t < texts.size(); ++t) {
          vec.EmbedPieces(PiecesAtSpaces(texts[t], rng), &sparse);
          const std::vector<float> want = ref.Embed(texts[t]);
          const std::vector<float> context =
              ref.Embed(texts[(t * 7 + 1) % texts.size()]);
          const double want_dot = HashingVectorizer::Cosine(context, want);
          const double got_dot = HashingVectorizer::Dot(sparse, context);
          if (!SameBits(vec.ToDense(sparse), want) ||
              !std::is_sorted(sparse.index.begin(), sparse.index.end()) ||
              std::memcmp(&want_dot, &got_dot, sizeof(want_dot)) != 0) {
            ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0u) << "dim " << dim << " bigrams " << bigrams
                                  << " fitted " << fitted;
      }
    }
  }
}

// ---------- AhoCorasick ----------

TEST(AhoCorasickTest, FindsAllOccurrences) {
  AhoCorasick ac;
  const uint32_t he = ac.AddPattern("he");
  const uint32_t she = ac.AddPattern("she");
  const uint32_t hers = ac.AddPattern("hers");
  ac.Build();

  auto matches = ac.FindAll("ushers");
  // "ushers" contains "she"@1, "he"@2, "hers"@2.
  ASSERT_EQ(matches.size(), 3u);
  std::set<uint32_t> found;
  for (const auto& m : matches) {
    found.insert(m.pattern);
    EXPECT_EQ(std::string("ushers").substr(m.begin, m.end - m.begin),
              ac.pattern(m.pattern));
  }
  EXPECT_TRUE(found.count(he));
  EXPECT_TRUE(found.count(she));
  EXPECT_TRUE(found.count(hers));
}

TEST(AhoCorasickTest, DuplicatePatternsEachMatchInAddOrder) {
  AhoCorasick ac;
  const uint32_t first = ac.AddPattern("ab");
  const uint32_t b = ac.AddPattern("b");
  const uint32_t second = ac.AddPattern("ab");
  ac.Build();
  const auto matches = ac.FindAll("xab");
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0].pattern, first);
  EXPECT_EQ(matches[1].pattern, second);
  EXPECT_EQ(matches[2].pattern, b);
  for (const auto& m : matches) EXPECT_EQ(m.end, 3u);
}

TEST(AhoCorasickTest, NoMatchesInUnrelatedText) {
  AhoCorasick ac;
  ac.AddPattern("needle");
  ac.Build();
  EXPECT_TRUE(ac.FindAll("haystack without it").empty());
  EXPECT_TRUE(ac.FindAll("").empty());
}

TEST(AhoCorasickTest, OverlappingAndRepeated) {
  AhoCorasick ac;
  ac.AddPattern("aa");
  ac.Build();
  auto matches = ac.FindAll("aaaa");
  EXPECT_EQ(matches.size(), 3u);  // positions 0,1,2
}

TEST(AhoCorasickTest, ManyPatternsScanOnce) {
  AhoCorasick ac;
  std::vector<std::string> names;
  for (int i = 0; i < 500; ++i) {
    names.push_back("entity" + std::to_string(i));
    ac.AddPattern(names.back());
  }
  ac.Build();
  auto matches = ac.FindAll("we saw entity42 and entity499 and entity5");
  // entity42 also contains entity4; entity499 contains entity49 and
  // entity4; entity5 contains no sub-pattern of this set... check
  // expected superset semantics: at least the three exact names.
  std::set<std::string> surfaces;
  for (const auto& m : matches) surfaces.insert(ac.pattern(m.pattern));
  EXPECT_TRUE(surfaces.count("entity42"));
  EXPECT_TRUE(surfaces.count("entity499"));
  EXPECT_TRUE(surfaces.count("entity5"));
}

TEST(AhoCorasickTest, PatternIndexRoundTrip) {
  AhoCorasick ac;
  const uint32_t a = ac.AddPattern("alpha");
  const uint32_t b = ac.AddPattern("beta");
  EXPECT_EQ(ac.pattern(a), "alpha");
  EXPECT_EQ(ac.pattern(b), "beta");
  EXPECT_EQ(ac.num_patterns(), 2u);
}

}  // namespace
}  // namespace saga::text
