#ifndef SAGA_ODKE_CORROBORATOR_H_
#define SAGA_ODKE_CORROBORATOR_H_

#include <array>
#include <vector>

#include "common/rng.h"
#include "odke/extractor.h"

namespace saga::odke {

/// Evidence features of one candidate *value* (all extractions that
/// agree on it), Fig 6 step 5: "number of support, extractor type and
/// confidence, and quality of the source page".
struct EvidenceFeatures {
  static constexpr int kDim = 10;

  double log_support = 0.0;        // log(1 + #extractions)
  double max_confidence = 0.0;
  double mean_confidence = 0.0;
  double infobox_fraction = 0.0;   // share from the rule-based extractor
  double mean_source_quality = 0.0;
  double max_source_quality = 0.0;
  double recency = 0.0;            // max timestamp / 1000
  double distinct_domains = 0.0;   // log(1 + #distinct domains)
  /// Subject-context match of the supporting documents (gap-relative,
  /// in [0,1]) — the namesake-disambiguation signal.
  double max_subject_context = 0.0;
  double mean_subject_context = 0.0;

  std::array<double, kDim> AsArray() const {
    return {log_support,        max_confidence,      mean_confidence,
            infobox_fraction,   mean_source_quality, max_source_quality,
            recency,            distinct_domains,    max_subject_context,
            mean_subject_context};
  }
};

/// All evidence agreeing on one value.
struct ValueGroup {
  kg::Value value;
  std::vector<CandidateFact> evidence;
  EvidenceFeatures features;
};

/// Groups candidate facts by value and computes evidence features.
std::vector<ValueGroup> GroupByValue(
    const std::vector<CandidateFact>& candidates);

/// Logistic-regression corroboration model over evidence features —
/// the "trained machine learning model ... to corroborate and identify
/// high quality facts" (§4).
class CorroborationModel {
 public:
  CorroborationModel();

  /// Model with explicit weights [bias, w_0..w_kDim-1]; used for
  /// feature ablations (e.g. support-count-only corroboration).
  static CorroborationModel WithWeights(
      const std::array<double, EvidenceFeatures::kDim + 1>& weights);

  /// Trains with SGD on labeled groups (label: value is correct).
  void Train(const std::vector<std::pair<EvidenceFeatures, bool>>& examples,
             int epochs = 30, double lr = 0.3, uint64_t seed = 17);

  /// P(value correct | evidence).
  double Predict(const EvidenceFeatures& f) const;

  const std::array<double, EvidenceFeatures::kDim + 1>& weights() const {
    return weights_;
  }

 private:
  /// Sensible hand-tuned prior used before / without training.
  void SetDefaultWeights();

  std::array<double, EvidenceFeatures::kDim + 1> weights_{};  // [bias, w...]
};

/// Picks the winning value among groups and decides acceptance.
class Corroborator {
 public:
  struct Options {
    double accept_threshold = 0.5;
  };

  struct Decision {
    bool accepted = false;
    kg::Value value;
    double probability = 0.0;
    /// Index of the winning group in the input vector.
    size_t group_index = 0;
  };

  Corroborator(const CorroborationModel* model, Options options);

  Decision Decide(const std::vector<ValueGroup>& groups) const;

 private:
  const CorroborationModel* model_;
  Options options_;
};

}  // namespace saga::odke

#endif  // SAGA_ODKE_CORROBORATOR_H_
