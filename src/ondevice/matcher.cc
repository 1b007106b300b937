#include "ondevice/matcher.h"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>

#include "text/similarity.h"
#include "text/tokenizer.h"

namespace saga::ondevice {

namespace {

/// Feature weights of Score.
constexpr double kPhoneWeight = 0.55;
constexpr double kEmailWeight = 0.55;
constexpr double kNameWeight = 0.45;

/// Name similarity robust to "Tim" vs "Timothy Chen": max over
/// Jaro-Winkler of full strings and best token-prefix containment.
double NameSimilarity(const std::string& a, const std::string& b) {
  const std::string la = text::NormalizedTokenString(a);
  const std::string lb = text::NormalizedTokenString(b);
  if (la.empty() || lb.empty()) return 0.0;
  double best = text::JaroWinkler(la, lb);
  const auto ta = text::Tokenize(la);
  const auto tb = text::Tokenize(lb);
  for (const auto& x : ta) {
    for (const auto& y : tb) {
      const auto& shorter = x.text.size() <= y.text.size() ? x.text : y.text;
      const auto& longer = x.text.size() <= y.text.size() ? y.text : x.text;
      if (shorter.size() >= 3 && longer.rfind(shorter, 0) == 0) {
        // Prefix containment ("tim" ⊑ "timothy"), discounted by how
        // much of the longer token is covered.
        const double coverage = static_cast<double>(shorter.size()) /
                                static_cast<double>(longer.size());
        best = std::max(best, 0.75 + 0.25 * coverage);
      }
      best = std::max(best, text::JaroWinkler(x.text, y.text) * 0.9);
    }
  }
  return best;
}

}  // namespace

double EntityMatcher::Score(const SourceRecord& a,
                            const SourceRecord& b) const {
  double score = 0.0;
  const std::string pa = NormalizePhone(a.phone);
  const std::string pb = NormalizePhone(b.phone);
  if (!pa.empty() && pa == pb) score += kPhoneWeight;
  if (!a.email.empty() &&
      text::NormalizedTokenString(a.email) ==
          text::NormalizedTokenString(b.email)) {
    score += kEmailWeight;
  }
  const double name_sim = NameSimilarity(a.name, b.name);
  // Names alone are weak evidence; they mostly boost records already
  // sharing an identifier. A strong identifier + plausible name passes
  // the threshold; name-only pairs need near-identical names.
  if (name_sim > 0.6) {
    score += kNameWeight * (name_sim - 0.6) / 0.4;
  } else if (score > 0.0 && name_sim < 0.3) {
    // Identifier collision with clearly different names: dampen.
    score *= 0.8;
  }
  return score;
}

std::vector<CandidatePair> EntityMatcher::MatchPairs(
    const std::vector<SourceRecord>& records,
    const std::vector<CandidatePair>& candidates) const {
  std::vector<CandidatePair> matches;
  for (const auto& [i, j] : candidates) {
    if (Matches(records[i], records[j])) matches.emplace_back(i, j);
  }
  return matches;
}

std::vector<uint32_t> ClusterMatches(
    size_t num_records, const std::vector<CandidatePair>& matches) {
  std::vector<uint32_t> parent(num_records);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<uint32_t(uint32_t)> find = [&](uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const auto& [i, j] : matches) {
    const uint32_t ri = find(i);
    const uint32_t rj = find(j);
    if (ri != rj) parent[std::max(ri, rj)] = std::min(ri, rj);
  }
  // Densify cluster ids.
  std::map<uint32_t, uint32_t> dense;
  std::vector<uint32_t> out(num_records);
  for (uint32_t i = 0; i < num_records; ++i) {
    const uint32_t root = find(i);
    auto [it, inserted] =
        dense.emplace(root, static_cast<uint32_t>(dense.size()));
    out[i] = it->second;
  }
  return out;
}

ClusterQuality EvaluateClustering(const std::vector<uint32_t>& predicted,
                                  const std::vector<uint32_t>& truth) {
  ClusterQuality q;
  const size_t n = std::min(predicted.size(), truth.size());
  uint64_t tp = 0;
  uint64_t fp = 0;
  uint64_t fn = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const bool same_pred = predicted[i] == predicted[j];
      const bool same_true = truth[i] == truth[j];
      if (same_pred && same_true) ++tp;
      else if (same_pred && !same_true) ++fp;
      else if (!same_pred && same_true) ++fn;
    }
  }
  q.precision = tp + fp == 0 ? 1.0
                             : static_cast<double>(tp) /
                                   static_cast<double>(tp + fp);
  q.recall = tp + fn == 0 ? 1.0
                          : static_cast<double>(tp) /
                                static_cast<double>(tp + fn);
  q.f1 = (q.precision + q.recall) == 0.0
             ? 0.0
             : 2.0 * q.precision * q.recall / (q.precision + q.recall);
  return q;
}

}  // namespace saga::ondevice
