#include "text/hashing_vectorizer.h"

#include <cmath>
#include <set>
#include <string>

#include "common/hash.h"
#include "text/tokenizer.h"

namespace saga::text {

HashingVectorizer::HashingVectorizer() : HashingVectorizer(Options()) {}

HashingVectorizer::HashingVectorizer(Options options) : options_(options) {}

void HashingVectorizer::FitDf(const std::vector<std::string_view>& docs) {
  for (std::string_view doc : docs) {
    std::set<std::string> seen;
    ForEachToken(doc, [&](std::string_view tok, size_t, size_t, bool) {
      const auto [it, inserted] = seen.emplace(tok);
      if (inserted) ++df_[*it];
    });
    ++num_docs_;
  }
}

void HashingVectorizer::FitDf(const std::vector<std::string>& docs) {
  std::vector<std::string_view> views(docs.begin(), docs.end());
  FitDf(views);
}

double HashingVectorizer::IdfWeight(std::string_view token) const {
  if (!options_.use_idf || num_docs_ == 0) return 1.0;
  auto it = df_.find(token);
  const double df = it == df_.end() ? 0.0 : static_cast<double>(it->second);
  return std::log((1.0 + num_docs_) / (1.0 + df)) + 0.1;
}

std::vector<float> HashingVectorizer::Embed(std::string_view text) const {
  std::vector<float> vec(options_.dim, 0.0f);
  const uint32_t dim = static_cast<uint32_t>(options_.dim);
  auto add = [&](uint64_t h, double weight) {
    const double sign = (Mix64(h) & 1) ? 1.0 : -1.0;
    vec[static_cast<uint32_t>(h % dim)] += static_cast<float>(sign * weight);
  };
  // Float adds keep the order unigram 0, bigram 0-1, unigram 1, ...
  bool first = true;
  uint64_t prev = 0;
  ForEachToken(text, [&](std::string_view tok, size_t, size_t, bool) {
    const uint64_t h = Hash64(tok);
    if (options_.use_bigrams && !first) {
      add(Hash64(tok, Hash64(std::string_view("_"), prev)), 0.5);
    }
    add(h, IdfWeight(tok));
    prev = h;
    first = false;
  });
  double norm_sq = 0.0;
  for (float v : vec) norm_sq += static_cast<double>(v) * v;
  if (norm_sq > 0.0) {
    const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
    for (float& v : vec) v *= inv;
  }
  return vec;
}

double HashingVectorizer::Cosine(const std::vector<float>& a,
                                 const std::vector<float>& b) {
  double dot = 0.0;
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) dot += static_cast<double>(a[i]) * b[i];
  return dot;
}

}  // namespace saga::text
