#include "ann/brute_force_index.h"

#include <cassert>

namespace saga::ann {

void BruteForceIndex::Add(uint64_t label, const std::vector<float>& vec) {
  assert(static_cast<int>(vec.size()) == dim_);
  rows_.Add(label, vec);
}

std::vector<Neighbor> BruteForceIndex::Search(const std::vector<float>& query,
                                              size_t k) const {
  const QueryScorer scorer(metric_, query);
  ScanTopK top(k);
  for (size_t i = 0; i < rows_.size(); ++i) {
    top.Offer(i, scorer.Score(rows_, i));
  }
  return top.Take(rows_.labels());
}

}  // namespace saga::ann
