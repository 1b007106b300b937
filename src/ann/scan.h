#ifndef SAGA_ANN_SCAN_H_
#define SAGA_ANN_SCAN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ann/distance.h"
#include "ann/index.h"

namespace saga::ann {

/// One query scored against many rows. Widens the query to double and
/// takes its norm once, then Score(rows, i) equals
/// Similarity(metric, query, rows.row(i), dim) bit for bit.
class QueryScorer {
 public:
  QueryScorer(Metric metric, std::span<const float> query)
      : metric_(metric), query_(query.begin(), query.end()),
        norm_(Norm(query.data(), query.size())) {}

  double Score(const RowMatrix& rows, size_t i) const {
    switch (metric_) {
      case Metric::kDot:
        return Dot(query_.data(), rows.row(i), query_.size());
      case Metric::kCosine:
        return CosineFromDot(Dot(query_.data(), rows.row(i), query_.size()),
                             norm_, rows.norm(i));
      case Metric::kL2:
        return -L2Sq(query_.data(), rows.row(i), query_.size());
    }
    return 0.0;
  }

 private:
  Metric metric_;
  std::vector<double> query_;
  double norm_;
};

/// Running top-k of an index scan. Keeps the k best offers under
/// (score descending, row ascending): on equal scores the earlier row
/// wins, whatever order the rows are offered in.
///
/// Offers that beat the current k-th best are appended; when 2k pile
/// up, nth_element cuts them back to the k best and raises the bar.
/// Amortized O(1) per kept offer, where a heap pays O(log k).
class ScanTopK {
 public:
  explicit ScanTopK(size_t k) : k_(k) {}

  void Offer(size_t row, double score) {
    const Entry e{score, row};
    if (k_ == 0 || (full_ && !Better(e, bar_))) return;
    kept_.push_back(e);
    if (kept_.size() / 2 >= k_) Shrink();
  }

  /// The kept offers best first, labelled through `labels[row]`.
  std::vector<Neighbor> Take(const std::vector<uint64_t>& labels) {
    if (kept_.size() > k_) Shrink();
    std::sort(kept_.begin(), kept_.end(), Better);
    std::vector<Neighbor> out;
    out.reserve(kept_.size());
    for (const Entry& e : kept_) out.push_back({labels[e.row], e.score});
    return out;
  }

 private:
  struct Entry {
    double score;
    size_t row;
  };
  static bool Better(const Entry& a, const Entry& b) {
    return a.score > b.score || (a.score == b.score && a.row < b.row);
  }
  void Shrink() {
    std::nth_element(kept_.begin(), kept_.begin() + (k_ - 1), kept_.end(),
                     Better);
    kept_.resize(k_);
    bar_ = kept_.back();
    full_ = true;
  }

  size_t k_;
  std::vector<Entry> kept_;
  bool full_ = false;  // k offers kept; bar_ is the k-th best
  Entry bar_{0.0, 0};
};

}  // namespace saga::ann

#endif  // SAGA_ANN_SCAN_H_
