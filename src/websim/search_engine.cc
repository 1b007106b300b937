#include "websim/search_engine.h"

#include <algorithm>
#include <cmath>

#include "text/tokenizer.h"
#include "websim/corpus_generator.h"

namespace saga::websim {

namespace {

/// BM25 parameters.
constexpr double kK1 = 1.2;
constexpr double kB = 0.75;
/// Title tokens are indexed with this weight multiplier.
constexpr double kTitleBoost = 2.0;

}  // namespace

SearchEngine::SearchEngine(const WebCorpus* corpus) : corpus_(corpus) {
  BuildAll();
}

void SearchEngine::IndexDoc(DocId id) {
  const WebDocument& doc = corpus_->doc(id);
  std::unordered_map<std::string, double> tf;
  double length = 0.0;
  for (const text::Token& t : text::Tokenize(doc.title)) {
    tf[t.text] += kTitleBoost;
    length += kTitleBoost;
  }
  for (const text::Token& t : text::Tokenize(doc.body)) {
    tf[t.text] += 1.0;
    length += 1.0;
  }
  for (const auto& [key, value] : doc.infobox) {
    for (const text::Token& t : text::Tokenize(value)) {
      tf[t.text] += 1.0;
      length += 1.0;
    }
  }
  for (auto& [term, freq] : tf) {
    postings_[term].emplace_back(id, freq);
  }
  doc_lengths_[id] = length;
}

void SearchEngine::BuildAll() {
  postings_.clear();
  doc_lengths_.assign(corpus_->size(), 0.0);
  for (DocId id = 0; id < corpus_->size(); ++id) IndexDoc(id);
  double total = 0.0;
  for (double l : doc_lengths_) total += l;
  avg_doc_length_ =
      doc_lengths_.empty() ? 1.0 : total / static_cast<double>(
                                               doc_lengths_.size());
}

std::vector<SearchEngine::Hit> SearchEngine::Search(std::string_view query,
                                                    size_t k) const {
  const size_t n = doc_lengths_.size();
  if (n == 0) return {};
  std::unordered_map<DocId, double> scores;
  for (const text::Token& qt : text::Tokenize(query)) {
    auto it = postings_.find(qt.text);
    if (it == postings_.end()) continue;
    const double df = static_cast<double>(it->second.size());
    const double idf = std::log(
        1.0 + (static_cast<double>(n) - df + 0.5) / (df + 0.5));
    for (const auto& [doc, tf] : it->second) {
      const double denom =
          tf + kK1 * (1.0 - kB + kB * doc_lengths_[doc] / avg_doc_length_);
      scores[doc] += idf * tf * (kK1 + 1.0) / denom;
    }
  }
  std::vector<Hit> hits;
  hits.reserve(scores.size());
  for (const auto& [doc, score] : scores) hits.push_back(Hit{doc, score});
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

}  // namespace saga::websim
