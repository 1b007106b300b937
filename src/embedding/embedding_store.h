#ifndef SAGA_EMBEDDING_EMBEDDING_STORE_H_
#define SAGA_EMBEDDING_EMBEDDING_STORE_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ann/index.h"
#include "common/result.h"
#include "common/status.h"
#include "embedding/trainer.h"
#include "graph_engine/view.h"
#include "kg/ids.h"

namespace saga::embedding {

/// Global-id keyed embedding lookup: the output artifact of the
/// training pipeline that the serving layer indexes and caches. An
/// immutable handle over one row matrix labelled by entity id in
/// ascending order; copies of the store and the indexes share it.
class EmbeddingStore {
 public:
  /// No rows, dim 0.
  EmbeddingStore();

  /// Re-keys trained local-id embeddings by global entity id.
  static EmbeddingStore FromTrained(const TrainedEmbeddings& trained,
                                    const graph_engine::GraphView& view);

  /// The entity's dim() floats, valid while any copy of the store
  /// lives; empty when the entity has no embedding (e.g. filtered out
  /// of the training view).
  std::span<const float> Get(kg::EntityId id) const;

  size_t size() const { return rows_->size(); }
  int dim() const { return rows_->dim(); }

  /// The shared rows, labelled by entity id in id order.
  const std::shared_ptr<const ann::RowMatrix>& rows() const { return rows_; }

  /// A serving version's shard inside its directory: LoadVersion loads
  /// it and the scrubber verifies it whenever the file exists.
  static constexpr char kShardFileName[] = "embeddings.bin";

  /// Writes the rows in the binary frame of common/checksum.h ("EMB2"
  /// magic + payload + trailing CRC) atomically and durably.
  Status Save(const std::string& path) const;
  /// Loads a file written by Save. Corruption when the magic is wrong
  /// or the payload does not decode to ascending ids of dim() floats
  /// each, kDataLoss when the CRC does not match. Fault point:
  /// `embedding.load` (kCorrupt flips a bit in the file image before
  /// verification).
  static Result<EmbeddingStore> Load(const std::string& path);
  /// Load's checks and decode over a file image already in memory;
  /// `name` labels the errors.
  static Result<EmbeddingStore> Decode(std::string image,
                                       const std::string& name);
  /// The checks Load makes (magic, then CRC) without decoding the
  /// vectors. Scrubber entry point.
  static Status Verify(const std::string& path);

 private:
  explicit EmbeddingStore(std::shared_ptr<const ann::RowMatrix> rows)
      : rows_(std::move(rows)) {}

  std::shared_ptr<const ann::RowMatrix> rows_;
};

}  // namespace saga::embedding

#endif  // SAGA_EMBEDDING_EMBEDDING_STORE_H_
