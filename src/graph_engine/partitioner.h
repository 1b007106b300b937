#ifndef SAGA_GRAPH_ENGINE_PARTITIONER_H_
#define SAGA_GRAPH_ENGINE_PARTITIONER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "graph_engine/view.h"

namespace saga::graph_engine {

/// Random edge-based graph partitioning for scalable shallow-embedding
/// training (§2). Entities are randomly assigned to P partitions; each
/// edge falls into bucket (partition(src), partition(dst)). The disk
/// trainer streams buckets while keeping only two entity partitions of
/// embeddings resident (Marius-style partition buffer).
class EdgePartitioner {
 public:
  /// Randomly assigns the view's entities to `num_partitions` balanced
  /// partitions (deterministic given the rng seed).
  EdgePartitioner(const GraphView& view, int num_partitions, Rng* rng);

  int num_partitions() const { return num_partitions_; }
  int partition_of(uint32_t local_entity) const {
    return assignment_[local_entity];
  }

  /// Entities (local ids) in partition p.
  const std::vector<uint32_t>& partition_members(int p) const {
    return members_[p];
  }

  /// Writes every bucket (pi, pj), the edges with src in pi and dst in
  /// pj (e.g. the training split), to `dir/bucket_<i>_<j>.bin`;
  /// LoadBucket reads one back. The disk trainer iterates buckets
  /// without materializing the full edge list.
  Status WriteBuckets(const std::vector<ViewEdge>& edges,
                      const std::string& dir) const;
  /// Corruption when an edge's src is not in partition `pi`, its dst
  /// not in `pj`, or its relation not in the view.
  Result<std::vector<ViewEdge>> LoadBucket(const std::string& dir, int pi,
                                           int pj) const;

  /// Bucket visit order minimizing partition swaps: consecutive buckets
  /// share at least one partition when possible (Hilbert-like zigzag).
  static std::vector<std::pair<int, int>> BucketSchedule(int num_partitions);

 private:
  int num_partitions_;
  size_t num_relations_;
  std::vector<int> assignment_;
  std::vector<std::vector<uint32_t>> members_;
};

}  // namespace saga::graph_engine

#endif  // SAGA_GRAPH_ENGINE_PARTITIONER_H_
