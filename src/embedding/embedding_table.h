#ifndef SAGA_EMBEDDING_EMBEDDING_TABLE_H_
#define SAGA_EMBEDDING_EMBEDDING_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace saga::embedding {

/// Dense row-major embedding matrix with per-parameter Adagrad state.
/// Rows are local ids from a GraphView (entities) or relation ids.
class EmbeddingTable {
 public:
  EmbeddingTable() = default;
  EmbeddingTable(size_t rows, int dim);

  EmbeddingTable(const EmbeddingTable&) = default;
  EmbeddingTable& operator=(const EmbeddingTable&) = default;
  EmbeddingTable(EmbeddingTable&&) = default;
  EmbeddingTable& operator=(EmbeddingTable&&) = default;

  /// Uniform init in [-scale, scale] (Xavier-ish when scale ~
  /// 1/sqrt(dim)).
  void RandomInit(Rng* rng, double scale);

  size_t rows() const { return rows_; }

  float* Row(size_t r) { return data_.data() + r * dim_; }
  const float* Row(size_t r) const { return data_.data() + r * dim_; }

  /// Adagrad update: accum += g^2; x -= lr * g / sqrt(accum + eps).
  void ApplyGradient(size_t row, const float* grad, double lr);

  /// L2-normalizes one row in place (TransE entity renorm).
  void NormalizeRow(size_t row);

  /// Resident parameter + optimizer-state bytes.
  size_t MemoryBytes() const { return (data_.size() + accum_.size()) * 4; }

  /// Raw (de)serialization of every row including Adagrad state. The
  /// disk trainer uses this to page partitions; LoadRows refuses a file
  /// whose size does not match this table's shape.
  Status SaveRows(const std::string& path) const;
  Status LoadRows(const std::string& path);

 private:
  size_t rows_ = 0;
  int dim_ = 0;
  std::vector<float> data_;
  std::vector<float> accum_;  // Adagrad accumulators
};

}  // namespace saga::embedding

#endif  // SAGA_EMBEDDING_EMBEDDING_TABLE_H_
