#include "ondevice/incremental_pipeline.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/serialization.h"
#include "common/trace.h"
#include "ondevice/blocking.h"

namespace saga::ondevice {

IncrementalPipeline::IncrementalPipeline(
    const std::vector<SourceRecord>* records)
    : records_(records) {
  if (records_->empty()) stage_ = Stage::kDone;
}

void IncrementalPipeline::TrackPeak() {
  peak_state_bytes_ = std::max(peak_state_bytes_, ApproxStateBytes());
}

size_t IncrementalPipeline::ApproxStateBytes() const {
  size_t bytes = 0;
  for (const auto& [key, posting] : postings_) {
    bytes += key.size() + posting.size() * 4 + 48;
  }
  bytes += candidate_pairs_.size() * 40;
  bytes += pair_list_.size() * 8;
  bytes += matches_.size() * 8;
  bytes += clusters_.size() * 4;
  return bytes;
}

namespace {
const char* StageSpanName(IncrementalPipeline::Stage stage) {
  switch (stage) {
    case IncrementalPipeline::Stage::kIngest:
      return "ondevice.pipeline.ingest";
    case IncrementalPipeline::Stage::kBlock:
      return "ondevice.pipeline.block";
    case IncrementalPipeline::Stage::kMatch:
      return "ondevice.pipeline.match";
    case IncrementalPipeline::Stage::kFuse:
      return "ondevice.pipeline.fuse";
    case IncrementalPipeline::Stage::kDone:
      break;
  }
  return "ondevice.pipeline.done";
}
}  // namespace

size_t IncrementalPipeline::RunSteps(size_t max_steps) {
  obs::ScopedSpan call_span("ondevice.pipeline.run_steps");
  size_t executed = 0;
  // Work units are fine-grained (one record / one pair), so spans wrap
  // each contiguous run of a stage within this call, not each step.
  while (executed < max_steps && stage_ != Stage::kDone) {
    const Stage current = stage_;
    obs::ScopedSpan stage_span(StageSpanName(current));
    while (executed < max_steps && stage_ == current) {
      switch (stage_) {
        case Stage::kIngest:
          StepIngest();
          break;
        case Stage::kBlock:
          StepBlock();
          break;
        case Stage::kMatch:
          StepMatch();
          break;
        case Stage::kFuse:
          StepFuse();
          break;
        case Stage::kDone:
          break;
      }
      ++executed;
      ++steps_executed_;
      TrackPeak();
    }
  }
  SAGA_COUNTER("ondevice.pipeline.steps").Add(static_cast<int64_t>(executed));
  SAGA_GAUGE("ondevice.pipeline.state_bytes")
      .Set(static_cast<double>(ApproxStateBytes()));
  return executed;
}

void IncrementalPipeline::StepIngest() {
  const SourceRecord& rec = (*records_)[ingest_pos_];
  for (const std::string& key : Blocker::KeysFor(rec)) {
    postings_[key].push_back(ingest_pos_);
  }
  ++ingest_pos_;
  if (ingest_pos_ >= records_->size()) {
    block_keys_.reserve(postings_.size());
    for (const auto& [key, _] : postings_) block_keys_.push_back(key);
    stage_ = Stage::kBlock;
  }
}

void IncrementalPipeline::StepBlock() {
  if (block_pos_ < block_keys_.size()) {
    const std::vector<uint32_t>& block = postings_[block_keys_[block_pos_]];
    // Oversize-block guard, as in Blocker.
    if (block.size() <= Blocker::kMaxBlockSize) {
      for (size_t a = 0; a < block.size(); ++a) {
        for (size_t b = a + 1; b < block.size(); ++b) {
          candidate_pairs_.emplace(std::min(block[a], block[b]),
                                   std::max(block[a], block[b]));
        }
      }
    }
    ++block_pos_;
  }
  if (block_pos_ >= block_keys_.size()) {
    pair_list_.assign(candidate_pairs_.begin(), candidate_pairs_.end());
    candidate_pairs_.clear();
    postings_.clear();  // bounded memory: drop stage inputs when done
    stage_ = Stage::kMatch;
  }
}

void IncrementalPipeline::StepMatch() {
  if (pair_pos_ < pair_list_.size()) {
    const auto& [i, j] = pair_list_[pair_pos_];
    if (EntityMatcher().Matches((*records_)[i], (*records_)[j])) {
      matches_.emplace_back(i, j);
    }
    ++pair_pos_;
  }
  if (pair_pos_ >= pair_list_.size()) {
    stage_ = Stage::kFuse;
  }
}

void IncrementalPipeline::StepFuse() {
  clusters_ = ClusterMatches(records_->size(), matches_);
  stage_ = Stage::kDone;
}

std::vector<FusedPerson> IncrementalPipeline::FusedPersons() const {
  return FuseClusters(*records_, clusters_);
}

std::string IncrementalPipeline::Checkpoint() const {
  std::string out;
  BinaryWriter w(&out);
  w.PutU8(static_cast<uint8_t>(stage_));
  w.PutVarint64(steps_executed_);
  w.PutVarint64(peak_state_bytes_);
  w.PutVarint64(ingest_pos_);
  w.PutVarint64(postings_.size());
  for (const auto& [key, posting] : postings_) {
    w.PutString(key);
    w.PutVarint64(posting.size());
    for (uint32_t idx : posting) w.PutVarint64(idx);
  }
  w.PutVarint64(block_keys_.size());
  for (const auto& key : block_keys_) w.PutString(key);
  w.PutVarint64(block_pos_);
  w.PutVarint64(candidate_pairs_.size());
  for (const auto& [i, j] : candidate_pairs_) {
    w.PutVarint64(i);
    w.PutVarint64(j);
  }
  w.PutVarint64(pair_list_.size());
  for (const auto& [i, j] : pair_list_) {
    w.PutVarint64(i);
    w.PutVarint64(j);
  }
  w.PutVarint64(pair_pos_);
  w.PutVarint64(matches_.size());
  for (const auto& [i, j] : matches_) {
    w.PutVarint64(i);
    w.PutVarint64(j);
  }
  w.PutVarint64(clusters_.size());
  for (uint32_t c : clusters_) w.PutVarint64(c);
  return out;
}

namespace {
/// Reads an element count of a checkpoint. Each element takes at least
/// one byte, so a count beyond the bytes left is corrupt, and sizing a
/// container by it could throw.
Status GetCount(BinaryReader& r, uint64_t* n) {
  SAGA_RETURN_IF_ERROR(r.GetVarint64(n));
  if (*n > r.remaining()) {
    return Status::Corruption("pipeline checkpoint count exceeds input");
  }
  return Status::OK();
}

/// Reads a record index of a checkpoint; one at or past `n_records`
/// would index past the records the caller re-supplied.
Status GetRecordId(BinaryReader& r, size_t n_records, uint32_t* id) {
  uint64_t v = 0;
  SAGA_RETURN_IF_ERROR(r.GetVarint64(&v));
  if (v >= n_records) {
    return Status::Corruption("pipeline checkpoint record id out of range");
  }
  *id = static_cast<uint32_t>(v);
  return Status::OK();
}
}  // namespace

Result<IncrementalPipeline> IncrementalPipeline::Restore(
    const std::vector<SourceRecord>* records, std::string_view checkpoint) {
  IncrementalPipeline p(records);
  BinaryReader r(checkpoint);
  uint8_t stage = 0;
  SAGA_RETURN_IF_ERROR(r.GetU8(&stage));
  if (stage > static_cast<uint8_t>(Stage::kDone)) {
    return Status::Corruption("bad pipeline stage");
  }
  p.stage_ = static_cast<Stage>(stage);
  uint64_t v = 0;
  SAGA_RETURN_IF_ERROR(r.GetVarint64(&v));
  p.steps_executed_ = v;
  SAGA_RETURN_IF_ERROR(r.GetVarint64(&v));
  p.peak_state_bytes_ = v;
  SAGA_RETURN_IF_ERROR(r.GetVarint64(&v));
  // StepIngest reads records[ingest_pos_] while the stage is kIngest.
  const size_t n_records = records->size();
  if (v > n_records || (p.stage_ == Stage::kIngest && v == n_records)) {
    return Status::Corruption("pipeline checkpoint ingest position");
  }
  p.ingest_pos_ = static_cast<uint32_t>(v);

  uint64_t n = 0;
  SAGA_RETURN_IF_ERROR(GetCount(r, &n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string key;
    SAGA_RETURN_IF_ERROR(r.GetString(&key));
    uint64_t m = 0;
    SAGA_RETURN_IF_ERROR(GetCount(r, &m));
    std::vector<uint32_t>& posting = p.postings_[key];
    posting.resize(m);
    for (uint64_t j = 0; j < m; ++j) {
      SAGA_RETURN_IF_ERROR(GetRecordId(r, n_records, &posting[j]));
    }
  }
  SAGA_RETURN_IF_ERROR(GetCount(r, &n));
  p.block_keys_.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    SAGA_RETURN_IF_ERROR(r.GetString(&p.block_keys_[i]));
  }
  SAGA_RETURN_IF_ERROR(r.GetVarint64(&v));
  p.block_pos_ = v;
  SAGA_RETURN_IF_ERROR(GetCount(r, &n));
  for (uint64_t i = 0; i < n; ++i) {
    CandidatePair pair;
    SAGA_RETURN_IF_ERROR(GetRecordId(r, n_records, &pair.first));
    SAGA_RETURN_IF_ERROR(GetRecordId(r, n_records, &pair.second));
    p.candidate_pairs_.insert(pair);
  }
  SAGA_RETURN_IF_ERROR(GetCount(r, &n));
  p.pair_list_.resize(n);
  for (auto& [a, b] : p.pair_list_) {
    SAGA_RETURN_IF_ERROR(GetRecordId(r, n_records, &a));
    SAGA_RETURN_IF_ERROR(GetRecordId(r, n_records, &b));
  }
  SAGA_RETURN_IF_ERROR(r.GetVarint64(&v));
  p.pair_pos_ = v;
  SAGA_RETURN_IF_ERROR(GetCount(r, &n));
  p.matches_.resize(n);
  for (auto& [a, b] : p.matches_) {
    SAGA_RETURN_IF_ERROR(GetRecordId(r, n_records, &a));
    SAGA_RETURN_IF_ERROR(GetRecordId(r, n_records, &b));
  }
  SAGA_RETURN_IF_ERROR(GetCount(r, &n));
  p.clusters_.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    SAGA_RETURN_IF_ERROR(r.GetVarint64(&v));
    p.clusters_[i] = static_cast<uint32_t>(v);
  }
  // FuseClusters reads one cluster per record once the stage is kDone.
  if (p.clusters_.size() != (p.stage_ == Stage::kDone ? n_records : 0)) {
    return Status::Corruption("pipeline checkpoint cluster count");
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after pipeline checkpoint");
  }
  return p;
}

}  // namespace saga::ondevice
