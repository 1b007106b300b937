#include "embedding/embedding_store.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/serialization.h"
#include "storage/wal.h"  // Crc32

namespace saga::embedding {

namespace {
/// Files open with this magic and close with a fixed32 CRC over the
/// payload between them.
constexpr uint32_t kEmbMagic = 0x32424D45u;  // "EMB2"

/// Reads `path`, applies the `embedding.load` read fault, checks the
/// magic (Corruption) and the trailing CRC (kDataLoss), and returns the
/// file image. The payload is buf[4, size - 4).
Result<std::string> ReadAndVerify(const std::string& path) {
  SAGA_ASSIGN_OR_RETURN(std::string buf, ReadFileToString(path));
  if (Faults().armed() && !buf.empty()) {
    SAGA_RETURN_IF_ERROR(
        Faults().InjectRead("embedding.load", buf.data(), buf.size()));
  }
  if (buf.size() < 8) {
    return Status::Corruption("embedding file too small: " + path);
  }
  uint32_t magic = 0;
  uint32_t stored = 0;
  SAGA_RETURN_IF_ERROR(BinaryReader(buf).GetFixed32(&magic));
  if (magic != kEmbMagic) {
    return Status::Corruption("bad embedding file magic: " + path);
  }
  const std::string_view tail = std::string_view(buf).substr(buf.size() - 4);
  SAGA_RETURN_IF_ERROR(BinaryReader(tail).GetFixed32(&stored));
  if (storage::Crc32(std::string_view(buf).substr(4, buf.size() - 8)) !=
      stored) {
    SAGA_COUNTER("integrity.corruption.detected").Add();
    return Status::DataLoss("embedding file crc mismatch: " + path);
  }
  return buf;
}

}  // namespace

EmbeddingStore EmbeddingStore::FromTrained(
    const TrainedEmbeddings& trained, const graph_engine::GraphView& view) {
  EmbeddingStore store;
  store.dim_ = trained.dim;
  for (uint32_t local = 0; local < view.num_entities(); ++local) {
    store.vectors_.emplace(view.global_entity(local),
                           trained.entities.RowVec(local));
  }
  return store;
}

void EmbeddingStore::Put(kg::EntityId id, std::vector<float> vec) {
  if (dim_ == 0) dim_ = static_cast<int>(vec.size());
  vectors_[id] = std::move(vec);
}

const std::vector<float>* EmbeddingStore::Get(kg::EntityId id) const {
  auto it = vectors_.find(id);
  return it == vectors_.end() ? nullptr : &it->second;
}

std::vector<kg::EntityId> EmbeddingStore::Ids() const {
  std::vector<kg::EntityId> ids;
  ids.reserve(vectors_.size());
  for (const auto& [id, _] : vectors_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Status EmbeddingStore::Save(const std::string& path) const {
  std::string buf;
  BinaryWriter w(&buf);
  w.PutFixed32(kEmbMagic);
  w.PutVarint64(static_cast<uint64_t>(dim_));
  w.PutVarint64(vectors_.size());
  for (kg::EntityId id : Ids()) {
    w.PutVarint64(id.value());
    w.PutFloatVector(vectors_.at(id));
  }
  w.PutFixed32(storage::Crc32(std::string_view(buf).substr(4)));
  // Durable: embedding shards are serving artifacts referenced by
  // snapshots and version swaps, so a post-crash disappearing act
  // would invalidate both.
  return WriteStringToFile(path, buf, /*durable=*/true);
}

Result<EmbeddingStore> EmbeddingStore::Load(const std::string& path) {
  SAGA_ASSIGN_OR_RETURN(std::string buf, ReadAndVerify(path));
  BinaryReader r(std::string_view(buf).substr(4, buf.size() - 8));
  EmbeddingStore store;
  uint64_t dim = 0;
  uint64_t n = 0;
  SAGA_RETURN_IF_ERROR(r.GetVarint64(&dim));
  SAGA_RETURN_IF_ERROR(r.GetVarint64(&n));
  store.dim_ = static_cast<int>(dim);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id = 0;
    std::vector<float> vec;
    SAGA_RETURN_IF_ERROR(r.GetVarint64(&id));
    SAGA_RETURN_IF_ERROR(r.GetFloatVector(&vec));
    store.vectors_.emplace(kg::EntityId(id), std::move(vec));
  }
  return store;
}

Status EmbeddingStore::Verify(const std::string& path) {
  return ReadAndVerify(path).status();
}

}  // namespace saga::embedding
