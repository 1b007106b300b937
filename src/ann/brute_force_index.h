#ifndef SAGA_ANN_BRUTE_FORCE_INDEX_H_
#define SAGA_ANN_BRUTE_FORCE_INDEX_H_

#include <vector>

#include "ann/index.h"
#include "ann/scan.h"

namespace saga::ann {

/// Exact k-NN by full scan. The recall=1.0 baseline the IVF index is
/// benchmarked against.
class BruteForceIndex : public VectorIndex {
 public:
  BruteForceIndex(int dim, Metric metric)
      : dim_(dim), metric_(metric), rows_(dim) {}

  void Add(uint64_t label, const std::vector<float>& vec) override;
  void Build() override {}
  std::vector<Neighbor> Search(const std::vector<float>& query,
                               size_t k) const override;
  size_t size() const override { return rows_.size(); }
  Metric metric() const override { return metric_; }

 private:
  int dim_;
  Metric metric_;
  RowMatrix rows_;
};

}  // namespace saga::ann

#endif  // SAGA_ANN_BRUTE_FORCE_INDEX_H_
