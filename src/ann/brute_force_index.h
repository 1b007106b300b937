#ifndef SAGA_ANN_BRUTE_FORCE_INDEX_H_
#define SAGA_ANN_BRUTE_FORCE_INDEX_H_

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
    for (size_t i = 0; i < rows_->size(); ++i) {
      top.Offer(i, scorer.Score(*rows_, i));
    }
    return top.Take(rows_->labels());
  }
};

}  // namespace saga::ann

#endif  // SAGA_ANN_BRUTE_FORCE_INDEX_H_
