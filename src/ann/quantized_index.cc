#include "ann/quantized_index.h"

#include <cassert>
#include <cmath>

#include "ann/scan.h"

namespace saga::ann {

QuantizedBruteForceIndex::QuantizedBruteForceIndex(int dim, Metric metric)
    : dim_(dim), metric_(metric) {
  assert(metric != Metric::kL2 && "L2 unsupported for int8 index");
}

void QuantizedBruteForceIndex::Add(uint64_t label,
                                   const std::vector<float>& vec) {
  assert(static_cast<int>(vec.size()) == dim_);
  std::vector<float> prepared = vec;
  if (metric_ == Metric::kCosine) {
    const double norm = Norm(prepared.data(), prepared.size());
    if (norm > 0.0) {
      const float inv = static_cast<float>(1.0 / norm);
      for (float& x : prepared) x *= inv;
    }
  }
  labels_.push_back(label);
  vectors_.push_back(QuantizeInt8(prepared));
}

std::vector<Neighbor> QuantizedBruteForceIndex::Search(
    const std::vector<float>& query, size_t k) const {
  std::vector<float> prepared = query;
  if (metric_ == Metric::kCosine) {
    const double norm = Norm(prepared.data(), prepared.size());
    if (norm > 0.0) {
      const float inv = static_cast<float>(1.0 / norm);
      for (float& x : prepared) x *= inv;
    }
  }
  ScanTopK top(k);
  for (size_t i = 0; i < labels_.size(); ++i) {
    top.Offer(i, DotQuantized(prepared, vectors_[i]));
  }
  return top.Take(labels_);
}

size_t QuantizedBruteForceIndex::PayloadBytes() const {
  size_t bytes = 0;
  for (const auto& v : vectors_) bytes += QuantizedBytes(v);
  return bytes;
}

}  // namespace saga::ann
