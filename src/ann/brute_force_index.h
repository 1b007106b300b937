#ifndef SAGA_ANN_BRUTE_FORCE_INDEX_H_
#define SAGA_ANN_BRUTE_FORCE_INDEX_H_

#include <algorithm>
#include <vector>

#include "ann/index.h"
#include "ann/scan.h"

namespace saga::ann {

/// Exact k-NN by full scan of the shared rows. The recall=1.0 baseline
/// the IVF index is benchmarked against.
class BruteForceIndex : public VectorIndex {
 public:
  using VectorIndex::VectorIndex;

  std::vector<Neighbor> Search(std::span<const float> query,
                               size_t k) const override {
    const QueryScorer scorer(metric_, query);
    ScanTopK top(k);
    // A block of rows is scored, then offered: the scoring loop runs
    // free of Offer's data-dependent branch, whose mispredictions would
    // otherwise discard dot products in flight.
    constexpr size_t kBlock = 64;
    double scores[kBlock];
    for (size_t begin = 0; begin < rows_->size(); begin += kBlock) {
      const size_t n = std::min(kBlock, rows_->size() - begin);
      for (size_t j = 0; j < n; ++j) {
        scores[j] = scorer.Score(*rows_, begin + j);
      }
      for (size_t j = 0; j < n; ++j) top.Offer(begin + j, scores[j]);
    }
    return top.Take(rows_->labels());
  }
};

}  // namespace saga::ann

#endif  // SAGA_ANN_BRUTE_FORCE_INDEX_H_
