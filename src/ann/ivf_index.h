#ifndef SAGA_ANN_IVF_INDEX_H_
#define SAGA_ANN_IVF_INDEX_H_

#include <vector>

#include "ann/index.h"
#include "common/rng.h"

namespace saga::ann {

/// Inverted-file approximate k-NN: k-means coarse quantizer over the
/// corpus, one posting list per centroid; a query scans only the
/// `nprobe` nearest lists. The knob behind the paper's §3.2
/// price/performance curve for the related-entities / reranker cache.
class IvfIndex : public VectorIndex {
 public:
  struct Options {
    int num_lists = 16;
    int nprobe = 2;
    int kmeans_iters = 8;
    uint64_t seed = 11;
  };

  /// Clusters the shared rows with k-means; the index keeps only the
  /// centroids and each list's row ids.
  IvfIndex(std::shared_ptr<const RowMatrix> rows, Metric metric,
           Options options);

  std::vector<Neighbor> Search(std::span<const float> query,
                               size_t k) const override;

  void set_nprobe(int nprobe) { options_.nprobe = nprobe; }

 private:
  Options options_;
  std::vector<float> centroids_;            // num_lists x dim
  std::vector<std::vector<uint32_t>> lists_;  // row ids per centroid
};

}  // namespace saga::ann

#endif  // SAGA_ANN_IVF_INDEX_H_
