#ifndef SAGA_TESTS_REFERENCE_TEXT_H_
#define SAGA_TESTS_REFERENCE_TEXT_H_

// Reference tokenizer and embedder for oracle tests: the straightforward
// versions that allocate a string per token and concatenate each bigram.
// text::Tokenize, HashingVectorizer::Embed and EmbedPieces (over pieces
// that join to the text with " ") must agree with them exactly (same
// tokens, bit-identical vectors).

#include <cctype>
#include <cmath>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "text/hashing_vectorizer.h"
#include "text/tokenizer.h"

namespace saga::text::reference {

inline bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '\'';
}

inline std::vector<Token> Tokenize(std::string_view text) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !IsWordChar(text[i])) ++i;
    if (i >= text.size()) break;
    const size_t begin = i;
    while (i < text.size() && IsWordChar(text[i])) ++i;
    Token tok;
    tok.begin = begin;
    tok.end = i;
    tok.capitalized =
        std::isupper(static_cast<unsigned char>(text[begin])) != 0;
    for (size_t j = begin; j < i; ++j) {
      tok.text.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(text[j]))));
    }
    tokens.push_back(std::move(tok));
  }
  return tokens;
}

class Vectorizer {
 public:
  explicit Vectorizer(HashingVectorizer::Options options)
      : options_(options) {}

  void FitDf(const std::vector<std::string>& docs) {
    for (const std::string& doc : docs) {
      std::set<std::string> seen;
      for (const Token& t : Tokenize(doc)) seen.insert(t.text);
      for (const auto& tok : seen) ++df_[tok];
      ++num_docs_;
    }
  }

  std::vector<float> Embed(std::string_view text) const {
    std::vector<float> vec(options_.dim, 0.0f);
    const std::vector<Token> tokens = Tokenize(text);
    for (size_t i = 0; i < tokens.size(); ++i) {
      AddTokenWeight(tokens[i].text, IdfWeight(tokens[i].text), &vec);
      if (options_.use_bigrams && i + 1 < tokens.size()) {
        const std::string bigram = tokens[i].text + "_" + tokens[i + 1].text;
        AddTokenWeight(bigram, 0.5, &vec);
      }
    }
    double norm_sq = 0.0;
    for (float v : vec) norm_sq += static_cast<double>(v) * v;
    if (norm_sq > 0.0) {
      const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
      for (float& v : vec) v *= inv;
    }
    return vec;
  }

 private:
  double IdfWeight(const std::string& token) const {
    if (!options_.use_idf || num_docs_ == 0) return 1.0;
    auto it = df_.find(token);
    const double df = it == df_.end() ? 0.0 : static_cast<double>(it->second);
    return std::log((1.0 + num_docs_) / (1.0 + df)) + 0.1;
  }

  void AddTokenWeight(std::string_view token, double weight,
                      std::vector<float>* vec) const {
    const uint64_t h = Hash64(token);
    const uint32_t dim = static_cast<uint32_t>(options_.dim);
    const uint32_t idx = static_cast<uint32_t>(h % dim);
    const double sign = (Mix64(h) & 1) ? 1.0 : -1.0;
    (*vec)[idx] += static_cast<float>(sign * weight);
  }

  HashingVectorizer::Options options_;
  std::unordered_map<std::string, uint32_t> df_;
  uint32_t num_docs_ = 0;
};

}  // namespace saga::text::reference

#endif  // SAGA_TESTS_REFERENCE_TEXT_H_
