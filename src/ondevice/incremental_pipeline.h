#ifndef SAGA_ONDEVICE_INCREMENTAL_PIPELINE_H_
#define SAGA_ONDEVICE_INCREMENTAL_PIPELINE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "ondevice/fusion.h"
#include "ondevice/matcher.h"
#include "ondevice/source_record.h"

namespace saga::ondevice {

/// Incremental continuous construction pipeline (§5 Privacy: "can be
/// paused and resumed at any point without losing state, allowing
/// deferral ... in favor of any higher priority task").
///
/// Work proceeds in fine-grained units — ingest one record, expand one
/// block, score one candidate pair — so RunSteps(n) bounds how long the
/// pipeline holds the CPU. Checkpoint() serializes the full
/// intermediate state; Restore() resumes an identical pipeline, even in
/// a new process.
class IncrementalPipeline {
 public:
  enum class Stage : uint8_t {
    kIngest = 0,
    kBlock = 1,
    kMatch = 2,
    kFuse = 3,
    kDone = 4,
  };

  explicit IncrementalPipeline(const std::vector<SourceRecord>* records);

  /// Executes up to `max_steps` work units; returns how many ran
  /// (0 once done). Never loses progress between calls.
  size_t RunSteps(size_t max_steps);

  bool done() const { return stage_ == Stage::kDone; }
  size_t steps_executed() const { return steps_executed_; }

  /// Approximate bytes of intermediate state currently held.
  size_t ApproxStateBytes() const;
  size_t peak_state_bytes() const { return peak_state_bytes_; }

  /// Valid once done().
  const std::vector<uint32_t>& clusters() const { return clusters_; }
  std::vector<FusedPerson> FusedPersons() const;

  /// Serializes all intermediate state (not the input records, which
  /// the caller re-supplies on Restore). The first byte is the Stage.
  std::string Checkpoint() const;
  static Result<IncrementalPipeline> Restore(
      const std::vector<SourceRecord>* records, std::string_view checkpoint);

 private:
  void StepIngest();
  void StepBlock();
  void StepMatch();
  void StepFuse();
  void TrackPeak();

  const std::vector<SourceRecord>* records_;
  Stage stage_ = Stage::kIngest;
  size_t steps_executed_ = 0;
  size_t peak_state_bytes_ = 0;

  // kIngest state.
  uint32_t ingest_pos_ = 0;
  std::map<std::string, std::vector<uint32_t>> postings_;

  // kBlock state.
  std::vector<std::string> block_keys_;
  size_t block_pos_ = 0;
  std::set<CandidatePair> candidate_pairs_;

  // kMatch state.
  std::vector<CandidatePair> pair_list_;
  size_t pair_pos_ = 0;
  std::vector<CandidatePair> matches_;

  // kFuse state.
  std::vector<uint32_t> clusters_;
};

}  // namespace saga::ondevice

#endif  // SAGA_ONDEVICE_INCREMENTAL_PIPELINE_H_
