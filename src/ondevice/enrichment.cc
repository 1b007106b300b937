#include "ondevice/enrichment.h"

#include <algorithm>
#include <cmath>

namespace saga::ondevice {

StaticKnowledgeAsset StaticKnowledgeAsset::Build(
    const kg::KnowledgeGraph& kg) {
  StaticKnowledgeAsset asset;
  asset.Refresh(kg);
  return asset;
}

void StaticKnowledgeAsset::Refresh(const kg::KnowledgeGraph& kg) {
  num_facts_ = 0;

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
  num_entities_ = std::min(kTopKEntities, ranked.size());
  for (size_t i = 0; i < num_entities_; ++i) {
    num_facts_ += std::min(kg.triples().BySubject(ranked[i].second).size(),
                           kMaxFactsPerEntity);
  }
}

size_t StaticKnowledgeAsset::EstimatedBytes() const {
  // ~24 bytes of ids + value payload estimate per fact.
  return num_facts_ * 48 + num_entities_ * 16;
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
