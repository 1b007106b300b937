#include "graph_engine/partitioner.h"

#include "common/file_util.h"
#include "common/serialization.h"

namespace saga::graph_engine {

namespace {
std::string BucketPath(const std::string& dir, int pi, int pj) {
  return JoinPath(dir, "bucket_" + std::to_string(pi) + "_" +
                           std::to_string(pj) + ".bin");
}
}  // namespace

EdgePartitioner::EdgePartitioner(const GraphView& view, int num_partitions,
                                 Rng* rng)
    : num_partitions_(num_partitions), num_relations_(view.num_relations()) {
  const size_t n = view.num_entities();
  assignment_.resize(n);
  members_.assign(num_partitions, {});
  // Balanced random assignment: shuffle then round-robin.
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  rng->Shuffle(&order);
  for (size_t i = 0; i < n; ++i) {
    const int p = static_cast<int>(i % static_cast<size_t>(num_partitions));
    assignment_[order[i]] = p;
    members_[p].push_back(order[i]);
  }
}

Status EdgePartitioner::WriteBuckets(const std::vector<ViewEdge>& edges,
                                     const std::string& dir) const {
  SAGA_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  // One pass over edges, buffering per bucket.
  std::vector<std::string> buffers(
      static_cast<size_t>(num_partitions_) * num_partitions_);
  for (const ViewEdge& e : edges) {
    const size_t bucket =
        static_cast<size_t>(assignment_[e.src]) * num_partitions_ +
        assignment_[e.dst];
    BinaryWriter w(&buffers[bucket]);
    w.PutVarint64(e.src);
    w.PutVarint64(e.relation);
    w.PutVarint64(e.dst);
  }
  for (int pi = 0; pi < num_partitions_; ++pi) {
    for (int pj = 0; pj < num_partitions_; ++pj) {
      SAGA_RETURN_IF_ERROR(WriteStringToFile(
          BucketPath(dir, pi, pj),
          buffers[static_cast<size_t>(pi) * num_partitions_ + pj]));
    }
  }
  return Status::OK();
}

Result<std::vector<ViewEdge>> EdgePartitioner::LoadBucket(
    const std::string& dir, int pi, int pj) const {
  SAGA_ASSIGN_OR_RETURN(std::string data,
                        ReadFileToString(BucketPath(dir, pi, pj)));
  BinaryReader r(data);
  std::vector<ViewEdge> edges;
  while (!r.AtEnd()) {
    uint64_t s = 0;
    uint64_t rel = 0;
    uint64_t d = 0;
    SAGA_RETURN_IF_ERROR(r.GetVarint64(&s));
    SAGA_RETURN_IF_ERROR(r.GetVarint64(&rel));
    SAGA_RETURN_IF_ERROR(r.GetVarint64(&d));
    if (s >= assignment_.size() || assignment_[s] != pi ||
        d >= assignment_.size() || assignment_[d] != pj ||
        rel >= num_relations_) {
      return Status::Corruption(
          "bucket " + std::to_string(pi) + "_" + std::to_string(pj) +
          " holds edge " + std::to_string(s) + " -" + std::to_string(rel) +
          "-> " + std::to_string(d) + " outside its partitions or relations");
    }
    edges.push_back(ViewEdge{static_cast<uint32_t>(s),
                             static_cast<uint32_t>(rel),
                             static_cast<uint32_t>(d)});
  }
  return edges;
}

std::vector<std::pair<int, int>> EdgePartitioner::BucketSchedule(
    int num_partitions) {
  // Row-major zigzag: (0,0)..(0,P-1), (1,P-1)..(1,0), (2,0)... so that
  // consecutive buckets always share the row partition and usually the
  // column partition, minimizing buffer swaps in the disk trainer.
  std::vector<std::pair<int, int>> order;
  order.reserve(static_cast<size_t>(num_partitions) * num_partitions);
  for (int i = 0; i < num_partitions; ++i) {
    if (i % 2 == 0) {
      for (int j = 0; j < num_partitions; ++j) order.emplace_back(i, j);
    } else {
      for (int j = num_partitions - 1; j >= 0; --j) order.emplace_back(i, j);
    }
  }
  return order;
}

}  // namespace saga::graph_engine
