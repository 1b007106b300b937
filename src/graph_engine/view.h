#ifndef SAGA_GRAPH_ENGINE_VIEW_H_
#define SAGA_GRAPH_ENGINE_VIEW_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "kg/knowledge_graph.h"

namespace saga::graph_engine {

/// Declarative filter producing a training-ready projection of the KG
/// (§2: "the graph engine generates a view of the KG by filtering out
/// non-relevant facts and possible noise").
struct ViewDefinition {
  /// Keep only entity->entity edges (literals never embed).
  bool entity_edges_only = true;
  /// Keep only predicates flagged embedding_relevant in the ontology.
  bool embedding_relevant_only = true;
  /// Drop predicates whose live-triple count falls below this after the
  /// other filters (rare predicates train noisy representations).
  uint64_t min_predicate_frequency = 0;
  /// Drop facts whose provenance confidence is below this.
  double min_confidence = 0.0;
  /// If non-empty, keep only these predicates.
  std::vector<kg::PredicateId> include_predicates;
  /// If non-empty, keep only subjects having one of these types
  /// (subtyping respected).
  std::vector<kg::TypeId> subject_types;
};

/// One edge of a materialized view in *local* dense id space.
struct ViewEdge {
  uint32_t src = 0;       // local entity id
  uint32_t relation = 0;  // local relation id
  uint32_t dst = 0;       // local entity id
};

/// Materialized filtered projection with dense local ids for entities
/// and relations — the exact shape embedding trainers consume.
/// Supports incremental maintenance (the KG is continuously growing).
///
/// Immutable between Build/ApplyDelta: the undirected adjacency is a
/// CSR array rebuilt eagerly by both, so const readers on any number of
/// threads never write shared state.
class GraphView {
 public:
  /// Filters `kg` by `def` and assigns dense local ids.
  static GraphView Build(const kg::KnowledgeGraph& kg,
                         const ViewDefinition& def);

  /// Applies triples appended since the last Build/Apply: each triple
  /// passing the filters becomes a new edge (new entities/relations get
  /// fresh local ids). min_predicate_frequency is evaluated against
  /// cumulative counts.
  void ApplyDelta(const kg::KnowledgeGraph& kg,
                  const std::vector<kg::TripleIdx>& added);

  const std::vector<ViewEdge>& edges() const { return edges_; }
  size_t num_entities() const { return entity_to_global_.size(); }
  size_t num_relations() const { return relation_to_global_.size(); }

  kg::EntityId global_entity(uint32_t local) const {
    return entity_to_global_[local];
  }
  kg::PredicateId global_relation(uint32_t local) const {
    return relation_to_global_[local];
  }
  /// Returns 0xFFFFFFFF when the entity is not in the view.
  uint32_t local_entity(kg::EntityId e) const;
  uint32_t local_relation(kg::PredicateId p) const;

  /// Undirected neighbours of `local`: for each edge touching it, in
  /// edge order, the edge's other end (a self-loop lists `local` twice).
  std::span<const uint32_t> Neighbors(uint32_t local) const {
    return {neighbors_.data() + offsets_[local],
            neighbors_.data() + offsets_[local + 1]};
  }

  static constexpr uint32_t kNotInView = 0xFFFFFFFFu;

 private:
  bool TriplePasses(const kg::KnowledgeGraph& kg, const kg::Triple& t) const;
  uint32_t InternEntity(kg::EntityId e);
  uint32_t InternRelation(kg::PredicateId p);
  void BuildAdjacency();

  ViewDefinition def_;
  std::vector<ViewEdge> edges_;
  std::vector<kg::EntityId> entity_to_global_;
  std::vector<kg::PredicateId> relation_to_global_;
  std::unordered_map<kg::EntityId, uint32_t> entity_to_local_;
  std::unordered_map<kg::PredicateId, uint32_t> relation_to_local_;
  std::unordered_map<kg::PredicateId, uint64_t> predicate_counts_;
  /// CSR adjacency: Neighbors(u) is neighbors_[offsets_[u], offsets_[u+1]).
  std::vector<size_t> offsets_{0};
  std::vector<uint32_t> neighbors_;
};

}  // namespace saga::graph_engine

#endif  // SAGA_GRAPH_ENGINE_VIEW_H_
