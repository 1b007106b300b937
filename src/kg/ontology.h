#ifndef SAGA_KG_ONTOLOGY_H_
#define SAGA_KG_ONTOLOGY_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/serialization.h"
#include "common/status.h"
#include "kg/ids.h"
#include "kg/value.h"

namespace saga::kg {

/// Schema metadata for one predicate. The embedding pipeline (§2) uses
/// `embedding_relevant` to build filtered training views: numeric values,
/// library identifiers, follower counts etc. are useful for QA but hurt
/// relatedness embeddings.
struct PredicateMeta {
  PredicateId id;
  std::string name;
  /// Expected subject type; Invalid() means any.
  TypeId domain;
  /// Kind of the object position.
  Value::Kind range_kind = Value::Kind::kEntity;
  /// Expected object entity type when range_kind == kEntity.
  TypeId range_type;
  /// Single-valued per subject (e.g. date_of_birth); multi-valued
  /// predicates like occupation may have many objects.
  bool functional = false;
  /// Whether the predicate carries relational signal for embeddings.
  bool embedding_relevant = true;
  /// Natural-language surface used by the ODKE query synthesizer,
  /// e.g. "date of birth".
  std::string surface_form;
};

/// Metadata for one entity type, with single-parent subtyping.
struct TypeMeta {
  TypeId id;
  std::string name;
  TypeId parent;  // Invalid() for roots.
};

/// Registry of entity types and predicates. Append-only: industrial KGs
/// never reuse schema ids.
class Ontology {
 public:
  Ontology() = default;

  /// Registers a type; `parent` may be Invalid() for a root type.
  TypeId AddType(std::string_view name, TypeId parent = TypeId::Invalid());

  /// Registers a predicate and returns its id. Name must be unique.
  PredicateId AddPredicate(PredicateMeta meta);

  Result<PredicateId> FindPredicate(std::string_view name) const;

  const TypeMeta& type(TypeId id) const { return types_[id.value()]; }
  const PredicateMeta& predicate(PredicateId id) const {
    return predicates_[id.value()];
  }
  const std::string& type_name(TypeId id) const { return type(id).name; }
  const std::string& predicate_name(PredicateId id) const {
    return predicate(id).name;
  }

  size_t num_types() const { return types_.size(); }
  size_t num_predicates() const { return predicates_.size(); }
  const std::vector<PredicateMeta>& predicates() const { return predicates_; }

  /// True if `t` equals `ancestor` or descends from it.
  bool IsSubtypeOf(TypeId t, TypeId ancestor) const;

  void Serialize(BinaryWriter* w) const;
  static Status Deserialize(BinaryReader* r, Ontology* out);

 private:
  std::vector<TypeMeta> types_;
  std::vector<PredicateMeta> predicates_;
  std::unordered_map<std::string, TypeId> type_by_name_;
  std::unordered_map<std::string, PredicateId> predicate_by_name_;
};

}  // namespace saga::kg

#endif  // SAGA_KG_ONTOLOGY_H_
