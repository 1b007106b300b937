#include "embedding/embedding_table.h"

#include <cmath>
#include <cstring>

#include "common/file_util.h"

namespace saga::embedding {

namespace {
constexpr double kAdagradEps = 1e-8;
}  // namespace

EmbeddingTable::EmbeddingTable(size_t rows, int dim)
    : rows_(rows),
      dim_(dim),
      data_(rows * static_cast<size_t>(dim), 0.0f),
      accum_(rows * static_cast<size_t>(dim), 0.0f) {}

void EmbeddingTable::RandomInit(Rng* rng, double scale) {
  for (float& v : data_) {
    v = static_cast<float>(rng->UniformDouble(-scale, scale));
  }
  std::fill(accum_.begin(), accum_.end(), 0.0f);
}

void EmbeddingTable::ApplyGradient(size_t row, const float* grad, double lr) {
  float* x = Row(row);
  float* a = accum_.data() + row * dim_;
  for (int i = 0; i < dim_; ++i) {
    const double g = grad[i];
    a[i] += static_cast<float>(g * g);
    x[i] -= static_cast<float>(lr * g / std::sqrt(a[i] + kAdagradEps));
  }
}

void EmbeddingTable::NormalizeRow(size_t row) {
  float* x = Row(row);
  double norm_sq = 0.0;
  for (int i = 0; i < dim_; ++i) norm_sq += static_cast<double>(x[i]) * x[i];
  if (norm_sq > 1.0) {
    const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
    for (int i = 0; i < dim_; ++i) x[i] *= inv;
  }
}

Status EmbeddingTable::SaveRows(const std::string& path) const {
  const size_t count = data_.size();
  std::string buf;
  buf.resize(count * 8);
  std::memcpy(buf.data(), data_.data(), count * 4);
  std::memcpy(buf.data() + count * 4, accum_.data(), count * 4);
  return WriteStringToFile(path, buf);
}

Status EmbeddingTable::LoadRows(const std::string& path) {
  SAGA_ASSIGN_OR_RETURN(std::string buf, ReadFileToString(path));
  const size_t count = data_.size();
  if (buf.size() != count * 8) {
    return Status::Corruption("partition file size mismatch: " + path);
  }
  std::memcpy(data_.data(), buf.data(), count * 4);
  std::memcpy(accum_.data(), buf.data() + count * 4, count * 4);
  return Status::OK();
}

}  // namespace saga::embedding
