#include "ann/ivf_index.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "ann/scan.h"

namespace saga::ann {

namespace {

/// Lloyd iterations of the coarse quantizer's k-means.
constexpr int kKmeansIters = 8;

}  // namespace

IvfIndex::IvfIndex(std::shared_ptr<const RowMatrix> rows, Metric metric,
                   Options options)
    : VectorIndex(std::move(rows), metric), options_(options) {
  const RowMatrix& m = *rows_;
  const size_t n = m.size();
  const int dim = m.dim();
  const int k = std::max(1, std::min<int>(options_.num_lists,
                                          static_cast<int>(n)));
  options_.num_lists = k;
  centroids_.assign(static_cast<size_t>(k) * dim, 0.0f);
  lists_.assign(k, {});
  if (n == 0) return;

  // k-means++ -lite init: random distinct points.
  Rng rng(kSeed);
  std::vector<size_t> seeds = rng.SampleWithoutReplacement(n, k);
  for (int c = 0; c < k; ++c) {
    std::copy(m.row(seeds[c]), m.row(seeds[c]) + dim,
              centroids_.begin() + static_cast<size_t>(c) * dim);
  }

  std::vector<int> assign(n, 0);
  for (int iter = 0; iter < kKmeansIters; ++iter) {
    // Assign: nearest centroid by L2 (standard for coarse quantizers
    // regardless of the search metric).
    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::max();
      int best_c = 0;
      for (int c = 0; c < k; ++c) {
        const double d = L2Sq(
            m.row(i), centroids_.data() + static_cast<size_t>(c) * dim,
            dim);
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
    std::vector<double> sums(static_cast<size_t>(k) * dim, 0.0);
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const int c = assign[i];
      ++counts[c];
      for (int d = 0; d < dim; ++d) {
        sums[static_cast<size_t>(c) * dim + d] += m.row(i)[d];
      }
    }
    for (int c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // keep previous centroid
      for (int d = 0; d < dim; ++d) {
        centroids_[static_cast<size_t>(c) * dim + d] = static_cast<float>(
            sums[static_cast<size_t>(c) * dim + d] /
            static_cast<double>(counts[c]));
      }
    }
    if (!changed) break;
  }
  for (size_t i = 0; i < n; ++i) {
    lists_[assign[i]].push_back(static_cast<uint32_t>(i));
  }
}

std::vector<Neighbor> IvfIndex::Search(std::span<const float> query,
                                       size_t k) const {
  const int dim = rows_->dim();
  const int nprobe =
      std::max(1, std::min(options_.nprobe, options_.num_lists));
  // Rank centroids by distance to query.
  std::vector<std::pair<double, int>> centroid_order;
  centroid_order.reserve(options_.num_lists);
  for (int c = 0; c < options_.num_lists; ++c) {
    centroid_order.emplace_back(
        L2Sq(query.data(),
             centroids_.data() + static_cast<size_t>(c) * dim, dim),
        c);
  }
  std::sort(centroid_order.begin(), centroid_order.end());

  const QueryScorer scorer(metric_, query);
  ScanTopK top(k);
  for (int p = 0; p < nprobe; ++p) {
    for (uint32_t i : lists_[centroid_order[p].second]) {
      top.Offer(i, scorer.Score(*rows_, i));
    }
  }
  return top.Take(rows_->labels());
}

}  // namespace saga::ann
