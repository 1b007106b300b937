#ifndef SAGA_ANN_INDEX_H_
#define SAGA_ANN_INDEX_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "ann/distance.h"

namespace saga::ann {

/// One k-NN hit: item label (caller-assigned, e.g. EntityId value) and
/// its similarity under the index metric (higher = closer).
struct Neighbor {
  uint64_t label = 0;
  double similarity = 0.0;
};

/// Labelled row-major float vectors, immutable once built: the one
/// copy of an embedding table, which every index over it shares. Each
/// row's norm is taken once here with Norm().
class RowMatrix {
 public:
  /// `data` holds labels.size() rows of `dim` floats, row-major.
  RowMatrix(int dim, std::vector<uint64_t> labels, std::vector<float> data)
      : dim_(dim), labels_(std::move(labels)), data_(std::move(data)) {
    assert(data_.size() == labels_.size() * static_cast<size_t>(dim_));
    norms_.reserve(size());
    for (size_t i = 0; i < size(); ++i) norms_.push_back(Norm(row(i), dim_));
  }

  int dim() const { return dim_; }
  size_t size() const { return labels_.size(); }
  const std::vector<uint64_t>& labels() const { return labels_; }
  const float* row(size_t i) const { return data_.data() + i * dim_; }
  double norm(size_t i) const { return norms_[i]; }

 private:
  int dim_;
  std::vector<uint64_t> labels_;
  std::vector<float> data_;
  std::vector<double> norms_;
};

/// Abstract k-nearest-neighbour index over a shared RowMatrix, built in
/// its constructor. It reads the rows in place and copies none of them.
class VectorIndex {
 public:
  VectorIndex(std::shared_ptr<const RowMatrix> rows, Metric metric)
      : rows_(std::move(rows)), metric_(metric) {}
  VectorIndex(const VectorIndex&) = delete;
  VectorIndex& operator=(const VectorIndex&) = delete;
  virtual ~VectorIndex() = default;

  /// Top-k most similar items, most similar first.
  virtual std::vector<Neighbor> Search(std::span<const float> query,
                                       size_t k) const = 0;

  size_t size() const { return rows_->size(); }
  const RowMatrix& rows() const { return *rows_; }

 protected:
  std::shared_ptr<const RowMatrix> rows_;
  Metric metric_;
};

}  // namespace saga::ann

#endif  // SAGA_ANN_INDEX_H_
