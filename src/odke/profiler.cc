#include "odke/profiler.h"

namespace saga::odke {

std::string_view GapReasonName(GapReason reason) {
  switch (reason) {
    case GapReason::kQueryLog:
      return "query_log";
    case GapReason::kProfiling:
      return "profiling";
    case GapReason::kTrending:
      return "trending";
    case GapReason::kStale:
      return "stale";
  }
  return "?";
}

KgProfiler::KgProfiler(const kg::KnowledgeGraph* kg)
    : KgProfiler(kg, Options()) {}

KgProfiler::KgProfiler(const kg::KnowledgeGraph* kg, Options options)
    : kg_(kg), options_(options) {}

std::vector<kg::EntityId> KgProfiler::EntitiesOfType(kg::TypeId t) const {
  std::vector<kg::EntityId> out;
  for (const auto& rec : kg_->catalog().records()) {
    for (kg::TypeId has : rec.types) {
      if (kg_->ontology().IsSubtypeOf(has, t)) {
        out.push_back(rec.id);
        break;
      }
    }
  }
  return out;
}

double KgProfiler::Coverage(kg::TypeId t, kg::PredicateId p) const {
  const std::vector<kg::EntityId> entities = EntitiesOfType(t);
  if (entities.empty()) return 0.0;
  size_t have = 0;
  for (kg::EntityId e : entities) {
    if (kg_->triples().HasFact(e, p)) ++have;
  }
  return static_cast<double>(have) / static_cast<double>(entities.size());
}

std::vector<FactGap> KgProfiler::FindCoverageGaps() const {
  std::vector<FactGap> gaps;
  for (const kg::PredicateMeta& meta : kg_->ontology().predicates()) {
    if (options_.functional_only && !meta.functional) continue;
    if (options_.literal_predicates_only &&
        meta.range_kind == kg::Value::Kind::kEntity) {
      continue;
    }
    if (!meta.domain.valid()) continue;
    const std::vector<kg::EntityId> entities = EntitiesOfType(meta.domain);
    if (entities.empty()) continue;
    size_t have = 0;
    std::vector<kg::EntityId> missing;
    for (kg::EntityId e : entities) {
      if (!kg_->triples().HasFact(e, meta.id)) {
        missing.push_back(e);
      } else {
        ++have;
      }
    }
    const double coverage =
        static_cast<double>(have) / static_cast<double>(entities.size());
    if (coverage < options_.expected_coverage) continue;
    for (kg::EntityId e : missing) {
      gaps.push_back(FactGap{e, meta.id, GapReason::kProfiling,
                             kg::kInvalidTripleIdx});
    }
  }
  return gaps;
}

std::vector<FactGap> KgProfiler::FindStaleFacts() const {
  std::vector<FactGap> gaps;
  kg_->triples().ForEach([&](kg::TripleIdx idx, const kg::Triple& t) {
    const kg::PredicateMeta& meta = kg_->ontology().predicate(t.predicate);
    if (options_.functional_only && !meta.functional) return;
    if (t.provenance.timestamp <= options_.staleness_horizon) {
      gaps.push_back(FactGap{t.subject, t.predicate, GapReason::kStale, idx});
    }
  });
  return gaps;
}

}  // namespace saga::odke
