#ifndef SAGA_EMBEDDING_EMBEDDING_STORE_H_
#define SAGA_EMBEDDING_EMBEDDING_STORE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "embedding/trainer.h"
#include "graph_engine/view.h"
#include "kg/ids.h"

namespace saga::embedding {

/// Global-id keyed embedding lookup: the output artifact of the
/// training pipeline that the serving layer indexes and caches.
class EmbeddingStore {
 public:
  EmbeddingStore() = default;

  /// Re-keys trained local-id embeddings by global entity id.
  static EmbeddingStore FromTrained(const TrainedEmbeddings& trained,
                                    const graph_engine::GraphView& view);

  void Put(kg::EntityId id, std::vector<float> vec);

  /// nullptr when the entity has no embedding (e.g. filtered out of the
  /// training view).
  const std::vector<float>* Get(kg::EntityId id) const;

  size_t size() const { return vectors_.size(); }
  int dim() const { return dim_; }

  /// Entity ids with embeddings, in id order (stable iteration for
  /// index building).
  std::vector<kg::EntityId> Ids() const;

  /// Writes the checksummed format ("EMB2" magic + payload + trailing
  /// CRC) atomically and durably.
  Status Save(const std::string& path) const;
  /// Loads a file written by Save. Corruption when the magic is wrong,
  /// kDataLoss when the CRC does not match. Fault point:
  /// `embedding.load` (kCorrupt flips a bit in the file image before
  /// verification).
  static Result<EmbeddingStore> Load(const std::string& path);
  /// The checks Load makes (magic, then CRC) without decoding the
  /// vectors. Scrubber entry point.
  static Status Verify(const std::string& path);

 private:
  int dim_ = 0;
  std::unordered_map<kg::EntityId, std::vector<float>> vectors_;
};

}  // namespace saga::embedding

#endif  // SAGA_EMBEDDING_EMBEDDING_STORE_H_
