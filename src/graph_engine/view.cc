#include "graph_engine/view.h"

namespace saga::graph_engine {

bool GraphView::TriplePasses(const kg::KnowledgeGraph& kg,
                             const kg::Triple& t) const {
  // Literals never embed: a view holds entity->entity edges only.
  if (!t.object.is_entity()) return false;
  if (t.provenance.confidence < def_.min_confidence) return false;
  return !def_.embedding_relevant_only ||
         kg.ontology().predicate(t.predicate).embedding_relevant;
}

uint32_t GraphView::InternEntity(kg::EntityId e) {
  auto [it, inserted] =
      entity_to_local_.emplace(e, static_cast<uint32_t>(entity_to_global_.size()));
  if (inserted) entity_to_global_.push_back(e);
  return it->second;
}

uint32_t GraphView::InternRelation(kg::PredicateId p) {
  auto [it, inserted] = relation_to_local_.emplace(
      p, static_cast<uint32_t>(relation_to_global_.size()));
  if (inserted) relation_to_global_.push_back(p);
  return it->second;
}

GraphView GraphView::Build(const kg::KnowledgeGraph& kg,
                           const ViewDefinition& def) {
  GraphView view;
  view.def_ = def;

  // Pass 1: count surviving triples per predicate (for the frequency
  // filter); pass 2: materialize.
  std::vector<kg::TripleIdx> passing;
  kg.triples().ForEach([&](kg::TripleIdx idx, const kg::Triple& t) {
    if (view.TriplePasses(kg, t)) {
      passing.push_back(idx);
      ++view.predicate_counts_[t.predicate];
    }
  });
  for (kg::TripleIdx idx : passing) {
    const kg::Triple& t = kg.triples().triple(idx);
    if (view.predicate_counts_[t.predicate] < def.min_predicate_frequency) {
      continue;
    }
    ViewEdge e;
    e.src = view.InternEntity(t.subject);
    e.relation = view.InternRelation(t.predicate);
    e.dst = view.InternEntity(t.object.entity());
    view.edges_.push_back(e);
  }
  view.BuildAdjacency();
  return view;
}

void GraphView::ApplyDelta(const kg::KnowledgeGraph& kg,
                           const std::vector<kg::TripleIdx>& added) {
  const size_t edges_before = edges_.size();
  for (kg::TripleIdx idx : added) {
    if (!kg.triples().IsLive(idx)) continue;
    const kg::Triple& t = kg.triples().triple(idx);
    if (!TriplePasses(kg, t)) continue;
    const uint64_t count = ++predicate_counts_[t.predicate];
    if (count < def_.min_predicate_frequency) continue;
    ViewEdge e;
    e.src = InternEntity(t.subject);
    e.relation = InternRelation(t.predicate);
    e.dst = InternEntity(t.object.entity());
    edges_.push_back(e);
  }
  if (edges_.size() != edges_before) BuildAdjacency();
}

uint32_t GraphView::local_entity(kg::EntityId e) const {
  auto it = entity_to_local_.find(e);
  return it == entity_to_local_.end() ? kNotInView : it->second;
}

uint32_t GraphView::local_relation(kg::PredicateId p) const {
  auto it = relation_to_local_.find(p);
  return it == relation_to_local_.end() ? kNotInView : it->second;
}

void GraphView::BuildAdjacency() {
  // Counting sort of both edge directions by endpoint; filling in edge
  // order keeps each neighbour list in edge order.
  offsets_.assign(num_entities() + 1, 0);
  for (const ViewEdge& e : edges_) {
    ++offsets_[e.src + 1];
    ++offsets_[e.dst + 1];
  }
  for (size_t u = 0; u < num_entities(); ++u) offsets_[u + 1] += offsets_[u];
  neighbors_.resize(offsets_.back());
  std::vector<size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const ViewEdge& e : edges_) {
    neighbors_[cursor[e.src]++] = e.dst;
    neighbors_[cursor[e.dst]++] = e.src;
  }
}

}  // namespace saga::graph_engine
