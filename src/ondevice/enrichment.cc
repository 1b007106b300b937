#include "ondevice/enrichment.h"

#include <algorithm>
#include <cmath>

namespace saga::ondevice {

StaticKnowledgeAsset StaticKnowledgeAsset::Build(
    const kg::KnowledgeGraph& kg, Options options) {
  StaticKnowledgeAsset asset;
  asset.options_ = options;
  asset.Refresh(kg);
  return asset;
}

void StaticKnowledgeAsset::Refresh(const kg::KnowledgeGraph& kg) {
  fact_counts_.clear();
  num_facts_ = 0;
  ++version_;

  // Top-k entities by popularity.
  std::vector<std::pair<double, kg::EntityId>> ranked;
  ranked.reserve(kg.catalog().size());
  for (const auto& rec : kg.catalog().records()) {
    ranked.emplace_back(rec.popularity, rec.id);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  const size_t k = std::min(options_.top_k_entities, ranked.size());
  for (size_t i = 0; i < k; ++i) {
    const kg::EntityId id = ranked[i].second;
    const size_t facts = std::min(kg.triples().BySubject(id).size(),
                                  kMaxFactsPerEntity);
    fact_counts_[id] = facts;
    num_facts_ += facts;
  }
}

void StaticKnowledgeAsset::ApplyDelta(
    const kg::KnowledgeGraph& kg, const std::vector<kg::TripleIdx>& added) {
  bool changed = false;
  for (kg::TripleIdx idx : added) {
    if (!kg.triples().IsLive(idx)) continue;
    const kg::Triple& t = kg.triples().triple(idx);
    auto it = fact_counts_.find(t.subject);
    if (it == fact_counts_.end()) continue;  // not a member
    if (it->second >= kMaxFactsPerEntity) continue;
    ++it->second;
    ++num_facts_;
    changed = true;
  }
  if (changed) ++version_;
}

size_t StaticKnowledgeAsset::EstimatedBytes() const {
  // ~24 bytes of ids + value payload estimate per fact.
  return num_facts_ * 48 + fact_counts_.size() * 16;
}

std::vector<kg::Triple> PiggybackEnrich(const kg::KnowledgeGraph& kg,
                                        kg::EntityId entity,
                                        size_t max_facts) {
  std::vector<kg::Triple> out;
  for (kg::TripleIdx idx : kg.triples().BySubject(entity)) {
    if (out.size() >= max_facts) break;
    out.push_back(kg.triples().triple(idx));
  }
  return out;
}

DpCounter::DpCounter(double epsilon_per_query, double epsilon_budget,
                     uint64_t seed)
    : epsilon_(epsilon_per_query), budget_(epsilon_budget), rng_(seed) {}

double DpCounter::NoisyCount(double true_count) {
  if (budget_exhausted()) return -1.0;
  spent_ += epsilon_;
  // Laplace(scale = 1/epsilon) via inverse CDF.
  const double u = rng_.NextDouble() - 0.5;
  const double scale = 1.0 / epsilon_;
  const double noise = (u < 0 ? 1.0 : -1.0) * scale *
                       std::log(1.0 - 2.0 * std::abs(u));
  return true_count + noise;
}

PirServer::PirServer(const kg::KnowledgeGraph* kg) : kg_(kg) {}

PirServer::FetchResult PirServer::Fetch(kg::EntityId id) const {
  FetchResult result;
  // Information-theoretic PIR lower bound: the server reads every cell
  // so access patterns reveal nothing.
  result.cells_scanned = kg_->num_entities();
  for (kg::TripleIdx idx : kg_->triples().BySubject(id)) {
    result.facts.push_back(kg_->triples().triple(idx));
  }
  result.bytes_transferred =
      result.facts.size() * 48 +
      static_cast<uint64_t>(
          std::ceil(std::sqrt(static_cast<double>(result.cells_scanned)))) *
          32;  // sqrt(N) communication, as in basic 2-server schemes
  return result;
}

PirServer::FetchResult PirServer::DirectFetch(kg::EntityId id) const {
  FetchResult result;
  result.cells_scanned = 1;
  for (kg::TripleIdx idx : kg_->triples().BySubject(id)) {
    result.facts.push_back(kg_->triples().triple(idx));
  }
  result.bytes_transferred = result.facts.size() * 48;
  return result;
}

}  // namespace saga::ondevice
