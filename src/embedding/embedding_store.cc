#include "embedding/embedding_store.h"

#include <algorithm>
#include <limits>

#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/serialization.h"

namespace saga::embedding {

namespace {
constexpr uint32_t kEmbMagic = 0x32424D45u;  // "EMB2"

/// Applies the `embedding.load` read fault to the file image `buf`,
/// then returns the payload of its frame. `name` labels the errors.
Result<std::string_view> Unframe(std::string& buf, const std::string& name) {
  if (Faults().armed() && !buf.empty()) {
    SAGA_RETURN_IF_ERROR(
        Faults().InjectRead("embedding.load", buf.data(), buf.size()));
  }
  return DecodeBinaryFrame(buf, kEmbMagic, name);
}

/// An entity id and the first of its row's floats.
using RowRef = std::pair<uint64_t, const float*>;

/// `rows` of `dim` floats each, packed in id order.
std::shared_ptr<const ann::RowMatrix> Pack(size_t dim,
                                           std::vector<RowRef> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<uint64_t> labels(rows.size());
  std::vector<float> data(rows.size() * dim);
  for (size_t i = 0; i < rows.size(); ++i) {
    labels[i] = rows[i].first;
    std::copy_n(rows[i].second, dim, data.begin() + i * dim);
  }
  return std::make_shared<const ann::RowMatrix>(
      static_cast<int>(dim), std::move(labels), std::move(data));
}

}  // namespace

EmbeddingStore::EmbeddingStore() : rows_(Pack(0, {})) {}

EmbeddingStore EmbeddingStore::FromTrained(
    const TrainedEmbeddings& trained, const graph_engine::GraphView& view) {
  std::vector<RowRef> rows;
  for (uint32_t local = 0; local < view.num_entities(); ++local) {
    rows.emplace_back(view.global_entity(local).value(),
                      trained.entities.Row(local));
  }
  return EmbeddingStore(
      Pack(static_cast<size_t>(trained.dim), std::move(rows)));
}

std::span<const float> EmbeddingStore::Get(kg::EntityId id) const {
  const std::vector<uint64_t>& labels = rows_->labels();
  const auto it = std::lower_bound(labels.begin(), labels.end(), id.value());
  if (it == labels.end() || *it != id.value()) return {};
  return {rows_->row(static_cast<size_t>(it - labels.begin())),
          static_cast<size_t>(rows_->dim())};
}

Status EmbeddingStore::Save(const std::string& path) const {
  std::string buf;
  BinaryWriter w(&buf);
  const size_t dim = static_cast<size_t>(rows_->dim());
  w.PutVarint64(dim);
  w.PutVarint64(size());
  for (size_t i = 0; i < size(); ++i) {
    w.PutVarint64(rows_->labels()[i]);
    w.PutVarint64(dim);  // each row carries its length
    for (size_t d = 0; d < dim; ++d) w.PutFloat(rows_->row(i)[d]);
  }
  // Durable: embedding shards are serving artifacts referenced by
  // snapshots and version swaps, so a post-crash disappearing act
  // would invalidate both.
  return WriteStringToFile(path, EncodeBinaryFrame(kEmbMagic, buf),
                           /*durable=*/true);
}

Result<EmbeddingStore> EmbeddingStore::Load(const std::string& path) {
  SAGA_ASSIGN_OR_RETURN(std::string buf, ReadFileToString(path));
  return Decode(std::move(buf), path);
}

Result<EmbeddingStore> EmbeddingStore::Decode(std::string buf,
                                              const std::string& path) {
  SAGA_ASSIGN_OR_RETURN(std::string_view payload, Unframe(buf, path));
  BinaryReader r(payload);
  uint64_t dim = 0;
  uint64_t n = 0;
  SAGA_RETURN_IF_ERROR(r.GetVarint64(&dim));
  SAGA_RETURN_IF_ERROR(r.GetVarint64(&n));
  auto corrupt = [&path](const char* what) {
    return Status::Corruption(std::string("embedding file ") + what + ": " +
                              path);
  };
  // A row takes at least a one-byte id, a one-byte length and dim
  // floats, so the header is checked against the payload before the
  // matrix is allocated.
  if (dim > static_cast<uint64_t>(std::numeric_limits<int>::max()) ||
      (n > 0 && (dim == 0 || n > r.remaining() / (2 + dim * sizeof(float))))) {
    return corrupt("header does not fit the payload");
  }
  std::vector<uint64_t> labels(n);
  std::vector<float> data(n * dim);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t len = 0;
    SAGA_RETURN_IF_ERROR(r.GetVarint64(&labels[i]));
    if (i > 0 && labels[i] <= labels[i - 1]) {
      return corrupt("ids not ascending");
    }
    SAGA_RETURN_IF_ERROR(r.GetVarint64(&len));
    if (len != dim) return corrupt("row length differs from dim");
    for (uint64_t d = 0; d < dim; ++d) {
      SAGA_RETURN_IF_ERROR(r.GetFloat(&data[i * dim + d]));
    }
  }
  if (!r.AtEnd()) return corrupt("has bytes after the last row");
  return EmbeddingStore(std::make_shared<const ann::RowMatrix>(
      static_cast<int>(dim), std::move(labels), std::move(data)));
}

Status EmbeddingStore::Verify(const std::string& path) {
  SAGA_ASSIGN_OR_RETURN(std::string buf, ReadFileToString(path));
  return Unframe(buf, path).status();
}

}  // namespace saga::embedding
