#ifndef SAGA_ONDEVICE_MATCHER_H_
#define SAGA_ONDEVICE_MATCHER_H_

#include <vector>

#include "ondevice/blocking.h"
#include "ondevice/source_record.h"

namespace saga::ondevice {

/// Pairwise entity matching over candidate pairs: weighted feature
/// score (phone / email exact match, name similarity) with a decision
/// threshold, as in the "same phone number / same email / similar
/// names" linking example of §5.
class EntityMatcher {
 public:
  /// Scores at or above this mean "same person".
  static constexpr double kThreshold = 0.5;

  /// Match score in [0, ~1.5].
  double Score(const SourceRecord& a, const SourceRecord& b) const;

  bool Matches(const SourceRecord& a, const SourceRecord& b) const {
    return Score(a, b) >= kThreshold;
  }

  /// Scores every candidate pair and keeps the matches.
  std::vector<CandidatePair> MatchPairs(
      const std::vector<SourceRecord>& records,
      const std::vector<CandidatePair>& candidates) const;
};

/// Union-find clustering of matched pairs into person clusters.
/// Returns cluster id per record (cluster ids are dense from 0).
std::vector<uint32_t> ClusterMatches(size_t num_records,
                                     const std::vector<CandidatePair>& matches);

/// Pairwise precision/recall/F1 of predicted clusters vs truth labels.
struct ClusterQuality {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};
ClusterQuality EvaluateClustering(const std::vector<uint32_t>& predicted,
                                  const std::vector<uint32_t>& truth);

}  // namespace saga::ondevice

#endif  // SAGA_ONDEVICE_MATCHER_H_
