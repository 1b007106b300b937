#include "embedding/disk_trainer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/file_util.h"

namespace saga::embedding {

PartitionBuffer::PartitionBuffer(
    const graph_engine::EdgePartitioner* partitioner, int dim, int capacity,
    std::string dir)
    : partitioner_(partitioner),
      dim_(dim),
      capacity_(capacity),
      dir_(std::move(dir)) {
  size_t total = 0;
  for (int p = 0; p < partitioner_->num_partitions(); ++p) {
    total += partitioner_->partition_members(p).size();
  }
  row_in_partition_.resize(total);
  for (int p = 0; p < partitioner_->num_partitions(); ++p) {
    const auto& members = partitioner_->partition_members(p);
    for (size_t i = 0; i < members.size(); ++i) {
      row_in_partition_[members[i]] = static_cast<uint32_t>(i);
    }
  }
}

std::string PartitionBuffer::PartitionPath(int p) const {
  return JoinPath(dir_, "part_" + std::to_string(p) + ".bin");
}

Status PartitionBuffer::Initialize(Rng* rng, double scale) {
  SAGA_RETURN_IF_ERROR(CreateDirIfMissing(dir_));
  for (int p = 0; p < partitioner_->num_partitions(); ++p) {
    EmbeddingTable table(partitioner_->partition_members(p).size(), dim_);
    table.RandomInit(rng, scale);
    SAGA_RETURN_IF_ERROR(table.SaveRows(PartitionPath(p)));
    stats_.bytes_written += table.rows() * static_cast<size_t>(dim_) * 8;
  }
  return Status::OK();
}

Status PartitionBuffer::EnsureResident(int p) {
  if (resident_.count(p)) {
    lru_.remove(p);
    lru_.push_front(p);
    return Status::OK();
  }
  while (static_cast<int>(resident_.size()) >= capacity_) {
    const int victim = lru_.back();
    lru_.pop_back();
    SAGA_RETURN_IF_ERROR(Evict(victim));
  }
  auto table = std::make_unique<EmbeddingTable>(
      partitioner_->partition_members(p).size(), dim_);
  SAGA_RETURN_IF_ERROR(table->LoadRows(PartitionPath(p)));
  const uint64_t bytes = table->MemoryBytes();
  stats_.bytes_read += bytes;
  ++stats_.partition_loads;
  resident_bytes_ += bytes;
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, resident_bytes_);
  resident_.emplace(p, std::move(table));
  lru_.push_front(p);
  return Status::OK();
}

Status PartitionBuffer::Evict(int p) {
  auto it = resident_.find(p);
  if (it == resident_.end()) return Status::OK();
  SAGA_RETURN_IF_ERROR(it->second->SaveRows(PartitionPath(p)));
  stats_.bytes_written += it->second->MemoryBytes();
  resident_bytes_ -= it->second->MemoryBytes();
  ++stats_.partition_evictions;
  resident_.erase(it);
  return Status::OK();
}

Status PartitionBuffer::FlushAll() {
  std::vector<int> parts;
  parts.reserve(resident_.size());
  for (const auto& [p, _] : resident_) parts.push_back(p);
  for (int p : parts) {
    auto it = resident_.find(p);
    SAGA_RETURN_IF_ERROR(it->second->SaveRows(PartitionPath(p)));
    stats_.bytes_written += it->second->MemoryBytes();
  }
  return Status::OK();
}

Result<EmbeddingTable> PartitionBuffer::AssembleFullTable() {
  SAGA_RETURN_IF_ERROR(FlushAll());
  EmbeddingTable full(row_in_partition_.size(), dim_);
  for (int p = 0; p < partitioner_->num_partitions(); ++p) {
    const auto& members = partitioner_->partition_members(p);
    EmbeddingTable part(members.size(), dim_);
    SAGA_RETURN_IF_ERROR(part.LoadRows(PartitionPath(p)));
    for (size_t i = 0; i < members.size(); ++i) {
      std::copy(part.Row(i), part.Row(i) + dim_, full.Row(members[i]));
    }
  }
  return full;
}

std::pair<EmbeddingTable*, size_t> PartitionBuffer::Locate(
    uint32_t id) const {
  const int p = partitioner_->partition_of(id);
  auto it = resident_.find(p);
  assert(it != resident_.end() && "entity's partition not resident");
  return {it->second.get(), row_in_partition_[id]};
}

const float* PartitionBuffer::Row(uint32_t id) const {
  auto [table, row] = Locate(id);
  return table->Row(row);
}

void PartitionBuffer::ApplyGradient(uint32_t id, const float* grad,
                                    double lr) {
  auto [table, row] = Locate(id);
  table->ApplyGradient(row, grad, lr);
}

void PartitionBuffer::NormalizeRow(uint32_t id) {
  auto [table, row] = Locate(id);
  table->NormalizeRow(row);
}

DiskTrainer::DiskTrainer(TrainingConfig config, DiskTrainerOptions options)
    : config_(config), options_(std::move(options)) {}

Result<TrainedEmbeddings> DiskTrainer::Train(
    const graph_engine::GraphView& view) {
  if (options_.buffer_partitions < 2) {
    return Status::InvalidArgument("buffer_partitions must be >= 2");
  }
  if (options_.work_dir.empty()) {
    return Status::InvalidArgument("work_dir required");
  }
  Rng rng(config_.seed);
  graph_engine::EdgePartitioner partitioner(view, kNumPartitions,
                                            &rng);

  // Holdout split before bucketing.
  std::vector<graph_engine::ViewEdge> all_edges = view.edges();
  rng.Shuffle(&all_edges);
  const size_t holdout = static_cast<size_t>(
      config_.holdout_fraction * static_cast<double>(all_edges.size()));
  std::vector<graph_engine::ViewEdge> holdout_edges(all_edges.end() - holdout,
                                                    all_edges.end());
  all_edges.resize(all_edges.size() - holdout);

  const std::string bucket_dir = JoinPath(options_.work_dir, "buckets");
  SAGA_RETURN_IF_ERROR(partitioner.WriteBuckets(all_edges, bucket_dir));

  PartitionBuffer buffer(&partitioner, config_.dim,
                         options_.buffer_partitions,
                         JoinPath(options_.work_dir, "params"));
  const double scale = 1.0 / std::sqrt(static_cast<double>(config_.dim));
  SAGA_RETURN_IF_ERROR(buffer.Initialize(&rng, scale));

  EmbeddingTable relations(std::max<size_t>(1, view.num_relations()),
                           config_.dim);
  relations.RandomInit(&rng, scale);

  const std::unique_ptr<KgeModel> model = MakeModel(config_.model);
  NegativeSampler sampler(view);
  const auto schedule =
      graph_engine::EdgePartitioner::BucketSchedule(kNumPartitions);

  TrainedEmbeddings out;
  out.model = config_.model;
  out.dim = config_.dim;
  out.train_edges = all_edges;
  out.holdout_edges = std::move(holdout_edges);

  std::vector<graph_engine::ViewEdge> negatives(kNumNegatives);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    double epoch_loss = 0.0;
    size_t steps = 0;
    for (const auto& [pi, pj] : schedule) {
      SAGA_ASSIGN_OR_RETURN(
          std::vector<graph_engine::ViewEdge> bucket,
          partitioner.LoadBucket(bucket_dir, pi, pj));
      if (bucket.empty()) continue;
      SAGA_RETURN_IF_ERROR(buffer.EnsureResident(pi));
      SAGA_RETURN_IF_ERROR(buffer.EnsureResident(pj));
      rng.Shuffle(&bucket);
      const auto& pool_head = partitioner.partition_members(pi);
      const auto& pool_tail = partitioner.partition_members(pj);
      bool corrupt_tail = true;
      for (const auto& pos : bucket) {
        for (int k = 0; k < kNumNegatives; ++k) {
          negatives[k] = sampler.CorruptFromPool(
              pos, corrupt_tail, corrupt_tail ? pool_tail : pool_head, &rng);
          corrupt_tail = !corrupt_tail;
        }
        epoch_loss += TrainStep(*model, config_, &buffer, &relations, pos,
                                negatives);
        ++steps;
      }
    }
    out.epoch_losses.push_back(
        steps == 0 ? 0.0 : epoch_loss / static_cast<double>(steps));
  }

  SAGA_ASSIGN_OR_RETURN(out.entities, buffer.AssembleFullTable());
  out.relations = std::move(relations);
  stats_ = buffer.stats();
  return out;
}

}  // namespace saga::embedding
