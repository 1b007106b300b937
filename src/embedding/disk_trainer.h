#ifndef SAGA_EMBEDDING_DISK_TRAINER_H_
#define SAGA_EMBEDDING_DISK_TRAINER_H_

#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "embedding/trainer.h"
#include "graph_engine/partitioner.h"
#include "graph_engine/view.h"

namespace saga::embedding {

/// Disk-based training configuration (§2: "for general KG embeddings we
/// use disk-based training"). Entity embeddings are sharded into
/// DiskTrainer::kNumPartitions files; at most `buffer_partitions` are
/// resident.
struct DiskTrainerOptions {
  int buffer_partitions = 2;  // must be >= 2 (a bucket touches two)
  std::string work_dir;       // required
};

struct DiskTrainerStats {
  uint64_t partition_loads = 0;
  uint64_t partition_evictions = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  /// Max bytes of entity embedding + optimizer state resident at once.
  uint64_t peak_resident_bytes = 0;
};

/// LRU buffer of entity-embedding partitions backed by files. Exposes
/// EntityStore over the resident set; touching a non-resident entity is
/// a programming error (the bucket schedule guarantees residency).
class PartitionBuffer : public EntityStore {
 public:
  PartitionBuffer(const graph_engine::EdgePartitioner* partitioner,
                  int dim, int capacity, std::string dir);

  /// Creates the on-disk partition files with random initialization.
  Status Initialize(Rng* rng, double scale);

  /// Ensures partition p is resident, evicting LRU partitions (written
  /// back) as needed.
  Status EnsureResident(int p);

  /// Writes every resident partition back to disk.
  Status FlushAll();

  /// Loads all partitions into one full table (for serving/eval).
  Result<EmbeddingTable> AssembleFullTable();

  // EntityStore:
  const float* Row(uint32_t id) const override;
  void ApplyGradient(uint32_t id, const float* grad, double lr) override;
  void NormalizeRow(uint32_t id) override;

  const DiskTrainerStats& stats() const { return stats_; }

 private:
  std::string PartitionPath(int p) const;
  Status Evict(int p);
  /// (resident table, row within partition) for a local entity id.
  std::pair<EmbeddingTable*, size_t> Locate(uint32_t id) const;

  const graph_engine::EdgePartitioner* partitioner_;
  int dim_;
  int capacity_;
  std::string dir_;
  /// entity local id -> row index inside its partition.
  std::vector<uint32_t> row_in_partition_;
  std::unordered_map<int, std::unique_ptr<EmbeddingTable>> resident_;
  std::list<int> lru_;  // front = most recent
  DiskTrainerStats stats_;
  uint64_t resident_bytes_ = 0;
};

/// Marius-style out-of-core trainer: iterates partition buckets in a
/// swap-minimizing order, drawing negatives from resident partitions.
class DiskTrainer {
 public:
  /// Files the entity embeddings are sharded into.
  static constexpr int kNumPartitions = 8;

  DiskTrainer(TrainingConfig config, DiskTrainerOptions options);

  Result<TrainedEmbeddings> Train(const graph_engine::GraphView& view);

  const DiskTrainerStats& stats() const { return stats_; }

 private:
  TrainingConfig config_;
  DiskTrainerOptions options_;
  DiskTrainerStats stats_;
};

}  // namespace saga::embedding

#endif  // SAGA_EMBEDDING_DISK_TRAINER_H_
