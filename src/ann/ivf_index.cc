#include "ann/ivf_index.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace saga::ann {

IvfIndex::IvfIndex(int dim, Metric metric)
    : IvfIndex(dim, metric, Options()) {}

IvfIndex::IvfIndex(int dim, Metric metric, Options options)
    : dim_(dim), metric_(metric), options_(options), rows_(dim) {}

void IvfIndex::Add(uint64_t label, const std::vector<float>& vec) {
  assert(static_cast<int>(vec.size()) == dim_);
  assert(!built_);
  rows_.Add(label, vec);
}

void IvfIndex::Build() {
  if (built_) return;
  built_ = true;
  const size_t n = rows_.size();
  const int k = std::max(1, std::min<int>(options_.num_lists,
                                          static_cast<int>(n)));
  options_.num_lists = k;
  centroids_.assign(static_cast<size_t>(k) * dim_, 0.0f);
  lists_.assign(k, {});
  if (n == 0) return;

  // k-means++ -lite init: random distinct points.
  Rng rng(options_.seed);
  std::vector<size_t> seeds = rng.SampleWithoutReplacement(n, k);
  for (int c = 0; c < k; ++c) {
    std::copy(rows_.row(seeds[c]), rows_.row(seeds[c]) + dim_,
              centroids_.begin() + static_cast<size_t>(c) * dim_);
  }

  std::vector<int> assign(n, 0);
  for (int iter = 0; iter < options_.kmeans_iters; ++iter) {
    // Assign: nearest centroid by L2 (standard for coarse quantizers
    // regardless of the search metric).
    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::max();
      int best_c = 0;
      for (int c = 0; c < k; ++c) {
        const double d = L2Sq(
            rows_.row(i), centroids_.data() + static_cast<size_t>(c) * dim_,
            dim_);
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      if (assign[i] != best_c) {
        assign[i] = best_c;
        changed = true;
      }
    }
    // Update.
    std::vector<double> sums(static_cast<size_t>(k) * dim_, 0.0);
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const int c = assign[i];
      ++counts[c];
      for (int d = 0; d < dim_; ++d) {
        sums[static_cast<size_t>(c) * dim_ + d] += rows_.row(i)[d];
      }
    }
    for (int c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // keep previous centroid
      for (int d = 0; d < dim_; ++d) {
        centroids_[static_cast<size_t>(c) * dim_ + d] = static_cast<float>(
            sums[static_cast<size_t>(c) * dim_ + d] /
            static_cast<double>(counts[c]));
      }
    }
    if (!changed) break;
  }
  for (size_t i = 0; i < n; ++i) {
    lists_[assign[i]].push_back(static_cast<uint32_t>(i));
  }
}

std::vector<Neighbor> IvfIndex::Search(const std::vector<float>& query,
                                       size_t k) const {
  assert(built_);
  const int nprobe =
      std::max(1, std::min(options_.nprobe, options_.num_lists));
  // Rank centroids by distance to query.
  std::vector<std::pair<double, int>> centroid_order;
  centroid_order.reserve(options_.num_lists);
  for (int c = 0; c < options_.num_lists; ++c) {
    centroid_order.emplace_back(
        L2Sq(query.data(),
             centroids_.data() + static_cast<size_t>(c) * dim_, dim_),
        c);
  }
  std::sort(centroid_order.begin(), centroid_order.end());

  const QueryScorer scorer(metric_, query);
  ScanTopK top(k);
  for (int p = 0; p < nprobe; ++p) {
    for (uint32_t i : lists_[centroid_order[p].second]) {
      top.Offer(i, scorer.Score(rows_, i));
    }
  }
  return top.Take(rows_.labels());
}

}  // namespace saga::ann
