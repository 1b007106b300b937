#ifndef SAGA_ODKE_PROFILER_H_
#define SAGA_ODKE_PROFILER_H_

#include <map>
#include <vector>

#include "kg/knowledge_graph.h"
#include "odke/fact_gap.h"

namespace saga::odke {

/// Proactive coverage / freshness profiling of the KG (§4: "identify
/// potential coverage and freshness issues ... via knowledge graph
/// profiling"). Only functional predicates are profiled: absence of a
/// multi-valued one is not a reliable gap signal.
class KgProfiler {
 public:
  struct Options {
    /// Facts with provenance timestamps <= this horizon are considered
    /// possibly stale.
    int64_t staleness_horizon = 0;
    /// Only emit gaps for literal-valued predicates — the ones ODKE's
    /// extractor families can currently harvest from text/infoboxes.
    bool literal_predicates_only = false;
  };

  explicit KgProfiler(const kg::KnowledgeGraph* kg);
  KgProfiler(const kg::KnowledgeGraph* kg, Options options);

  /// Fraction of entities with domain type `t` that carry predicate
  /// `p` (predicate domains come from the ontology).
  double Coverage(kg::TypeId t, kg::PredicateId p) const;

  /// Coverage gaps: entities missing predicates their type usually has.
  std::vector<FactGap> FindCoverageGaps() const;

  /// Stale facts: functional facts whose timestamp is at or below the
  /// horizon.
  std::vector<FactGap> FindStaleFacts() const;

 private:
  std::vector<kg::EntityId> EntitiesOfType(kg::TypeId t) const;

  const kg::KnowledgeGraph* kg_;
  Options options_;
};

}  // namespace saga::odke

#endif  // SAGA_ODKE_PROFILER_H_
