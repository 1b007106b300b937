#ifndef SAGA_KG_KNOWLEDGE_GRAPH_H_
#define SAGA_KG_KNOWLEDGE_GRAPH_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "kg/entity_catalog.h"
#include "kg/ontology.h"
#include "kg/triple_store.h"

namespace saga::kg {

/// Top-level knowledge graph: ontology + entity catalog + triple store
/// + registered data sources. This is the open-domain KG the whole
/// platform grows and serves.
class KnowledgeGraph {
 public:
  KnowledgeGraph() = default;

  KnowledgeGraph(const KnowledgeGraph&) = delete;
  KnowledgeGraph& operator=(const KnowledgeGraph&) = delete;
  KnowledgeGraph(KnowledgeGraph&&) = default;
  KnowledgeGraph& operator=(KnowledgeGraph&&) = default;

  Ontology& ontology() { return ontology_; }
  const Ontology& ontology() const { return ontology_; }
  EntityCatalog& catalog() { return catalog_; }
  const EntityCatalog& catalog() const { return catalog_; }
  TripleStore& triples() { return triples_; }
  const TripleStore& triples() const { return triples_; }

  /// Registers a provenance source (e.g. "wikipedia", "odke",
  /// "web_annotation") and returns its id; idempotent per name.
  SourceId AddSource(std::string_view name, double quality = 1.0);
  Result<SourceId> FindSource(std::string_view name) const;
  size_t num_sources() const { return source_names_.size(); }

  /// Convenience: add a fact with provenance.
  TripleIdx AddFact(EntityId s, PredicateId p, Value o, SourceId source,
                    double confidence = 1.0, int64_t timestamp = 0);

  /// All object values of live (s, p, *) facts.
  std::vector<Value> ObjectsOf(EntityId s, PredicateId p) const;

  /// Entity-typed neighbors over outgoing + incoming entity edges.
  std::vector<EntityId> Neighbors(EntityId e) const;

  /// True when one of `e`'s types is `type` or a subtype of it.
  bool IsInstanceOf(EntityId e, TypeId type) const;

  size_t num_entities() const { return catalog_.size(); }
  size_t num_triples() const { return triples_.live_size(); }

  /// Monotone logical clock used to timestamp new facts.
  int64_t NowTimestamp() { return ++logical_clock_; }

  /// Binary snapshot of the entire KG in the CRC'd binary frame
  /// (common/checksum.h).
  Status Save(const std::string& path) const;
  /// Loads a file Save wrote: Corruption on a bad magic, a short file or
  /// a payload that does not decode, kDataLoss on a CRC mismatch.
  static Result<KnowledgeGraph> Load(const std::string& path);

 private:
  Ontology ontology_;
  EntityCatalog catalog_;
  TripleStore triples_;
  std::vector<std::string> source_names_;
  std::vector<double> source_qualities_;
  int64_t logical_clock_ = 0;
};

}  // namespace saga::kg

#endif  // SAGA_KG_KNOWLEDGE_GRAPH_H_
