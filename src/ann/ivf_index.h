#ifndef SAGA_ANN_IVF_INDEX_H_
#define SAGA_ANN_IVF_INDEX_H_

#include <vector>

#include "ann/index.h"
#include "ann/scan.h"
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

  IvfIndex(int dim, Metric metric);
  IvfIndex(int dim, Metric metric, Options options);

  void Add(uint64_t label, const std::vector<float>& vec) override;
  void Build() override;
  std::vector<Neighbor> Search(const std::vector<float>& query,
                               size_t k) const override;
  size_t size() const override { return rows_.size(); }
  Metric metric() const override { return metric_; }

  void set_nprobe(int nprobe) { options_.nprobe = nprobe; }
  int nprobe() const { return options_.nprobe; }
  int num_lists() const { return options_.num_lists; }

 private:
  int dim_;
  Metric metric_;
  Options options_;
  RowMatrix rows_;
  std::vector<float> centroids_;            // num_lists x dim
  std::vector<std::vector<uint32_t>> lists_;  // item indexes per centroid
  bool built_ = false;
};

}  // namespace saga::ann

#endif  // SAGA_ANN_IVF_INDEX_H_
