#include "ann/quantized_index.h"

#include <cassert>
#include <cmath>

#include "ann/scan.h"

namespace saga::ann {

namespace {

/// What the index stores and searches with: under cosine, `v` scaled to
/// unit norm in float.
std::vector<float> Prepare(Metric metric, std::span<const float> v) {
  std::vector<float> out(v.begin(), v.end());
  if (metric == Metric::kCosine) {
    const double norm = Norm(out.data(), out.size());
    if (norm > 0.0) {
      const float inv = static_cast<float>(1.0 / norm);
      for (float& x : out) x *= inv;
    }
  }
  return out;
}

}  // namespace

QuantizedBruteForceIndex::QuantizedBruteForceIndex(
    std::shared_ptr<const RowMatrix> rows, Metric metric)
    : VectorIndex(std::move(rows), metric) {
  assert(metric != Metric::kL2 && "L2 unsupported for int8 index");
  const size_t dim = static_cast<size_t>(rows_->dim());
  vectors_.reserve(rows_->size());
  for (size_t i = 0; i < rows_->size(); ++i) {
    vectors_.push_back(
        QuantizeInt8(Prepare(metric_, {rows_->row(i), dim})));
  }
}

std::vector<Neighbor> QuantizedBruteForceIndex::Search(
    std::span<const float> query, size_t k) const {
  const std::vector<float> prepared = Prepare(metric_, query);
  ScanTopK top(k);
  for (size_t i = 0; i < vectors_.size(); ++i) {
    top.Offer(i, DotQuantized(prepared, vectors_[i]));
  }
  return top.Take(rows_->labels());
}

size_t QuantizedBruteForceIndex::PayloadBytes() const {
  size_t bytes = 0;
  for (const auto& v : vectors_) bytes += QuantizedBytes(v);
  return bytes;
}

}  // namespace saga::ann
