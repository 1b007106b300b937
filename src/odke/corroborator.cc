#include "odke/corroborator.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>

namespace saga::odke {

namespace {

double SigmoidStable(double x) {
  if (x >= 0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

EvidenceFeatures ComputeFeatures(const std::vector<CandidateFact>& evidence) {
  EvidenceFeatures f;
  if (evidence.empty()) return f;
  double conf_sum = 0.0;
  double quality_sum = 0.0;
  double context_sum = 0.0;
  size_t infobox = 0;
  int64_t max_ts = 0;
  std::set<std::string> domains;
  for (const CandidateFact& c : evidence) {
    conf_sum += c.confidence;
    quality_sum += c.source_quality;
    context_sum += c.subject_context;
    f.max_confidence = std::max(f.max_confidence, c.confidence);
    f.max_source_quality = std::max(f.max_source_quality, c.source_quality);
    f.max_subject_context =
        std::max(f.max_subject_context, c.subject_context);
    if (c.extractor == ExtractorKind::kInfoboxRule) ++infobox;
    max_ts = std::max(max_ts, c.doc_timestamp);
    domains.insert(c.domain);
  }
  const double n = static_cast<double>(evidence.size());
  f.log_support = std::log1p(n);
  f.mean_confidence = conf_sum / n;
  f.infobox_fraction = static_cast<double>(infobox) / n;
  f.mean_source_quality = quality_sum / n;
  f.recency = static_cast<double>(max_ts) / 1000.0;
  f.distinct_domains = std::log1p(static_cast<double>(domains.size()));
  f.mean_subject_context = context_sum / n;
  return f;
}

}  // namespace

std::vector<ValueGroup> GroupByValue(
    const std::vector<CandidateFact>& candidates) {
  // Distinct values per gap are few (a handful of conflicting dates),
  // so exact value-equality scan beats hashing subtleties.
  std::vector<ValueGroup> groups;
  for (const CandidateFact& c : candidates) {
    ValueGroup* target = nullptr;
    for (ValueGroup& g : groups) {
      if (g.value == c.value) {
        target = &g;
        break;
      }
    }
    if (target == nullptr) {
      ValueGroup group;
      group.value = c.value;
      groups.push_back(std::move(group));
      target = &groups.back();
    }
    target->evidence.push_back(c);
  }
  for (ValueGroup& g : groups) {
    g.features = ComputeFeatures(g.evidence);
  }
  return groups;
}

CorroborationModel::CorroborationModel() { SetDefaultWeights(); }

CorroborationModel CorroborationModel::WithWeights(
    const std::array<double, EvidenceFeatures::kDim + 1>& weights) {
  CorroborationModel model;
  model.weights_ = weights;
  return model;
}

void CorroborationModel::SetDefaultWeights() {
  // Bias + [log_support, max_conf, mean_conf, infobox_frac,
  //         mean_quality, max_quality, recency, distinct_domains,
  //         max_subject_context, mean_subject_context].
  // Subject context carries heavy weight: support alone is misleading
  // when a popular namesake has more pages (Fig 6).
  weights_ = {-4.0, 1.0, 1.5, 0.5, 0.8, 1.0, 0.5, 0.2, 0.6, 2.5, 1.0};
}

void CorroborationModel::Train(
    const std::vector<std::pair<EvidenceFeatures, bool>>& examples,
    int epochs, double lr, uint64_t seed) {
  if (examples.empty()) return;
  Rng rng(seed);
  std::vector<size_t> order(examples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t idx : order) {
      const auto& [features, label] = examples[idx];
      const auto x = features.AsArray();
      double z = weights_[0];
      for (int i = 0; i < EvidenceFeatures::kDim; ++i) {
        z += weights_[i + 1] * x[i];
      }
      const double err = SigmoidStable(z) - (label ? 1.0 : 0.0);
      weights_[0] -= lr * err;
      for (int i = 0; i < EvidenceFeatures::kDim; ++i) {
        weights_[i + 1] -= lr * (err * x[i] + 1e-4 * weights_[i + 1]);
      }
    }
  }
}

double CorroborationModel::Predict(const EvidenceFeatures& f) const {
  const auto x = f.AsArray();
  double z = weights_[0];
  for (int i = 0; i < EvidenceFeatures::kDim; ++i) {
    z += weights_[i + 1] * x[i];
  }
  return SigmoidStable(z);
}

Corroborator::Corroborator(const CorroborationModel* model, Options options)
    : model_(model), options_(options) {}

Corroborator::Decision Corroborator::Decide(
    const std::vector<ValueGroup>& groups) const {
  Decision d;
  if (groups.empty()) return d;
  double best = -1.0;
  for (size_t i = 0; i < groups.size(); ++i) {
    const double p = model_->Predict(groups[i].features);
    if (p > best) {
      best = p;
      d.group_index = i;
    }
  }
  d.probability = best;
  d.value = groups[d.group_index].value;
  d.accepted = best >= options_.accept_threshold;
  return d;
}

}  // namespace saga::odke
