#include "kg/ontology.h"

#include <cassert>

namespace saga::kg {

TypeId Ontology::AddType(std::string_view name, TypeId parent) {
  auto it = type_by_name_.find(std::string(name));
  if (it != type_by_name_.end()) return it->second;
  TypeId id(types_.size());
  types_.push_back(TypeMeta{id, std::string(name), parent});
  type_by_name_.emplace(std::string(name), id);
  return id;
}

PredicateId Ontology::AddPredicate(PredicateMeta meta) {
  auto it = predicate_by_name_.find(meta.name);
  if (it != predicate_by_name_.end()) return it->second;
  PredicateId id(predicates_.size());
  meta.id = id;
  predicate_by_name_.emplace(meta.name, id);
  predicates_.push_back(std::move(meta));
  return id;
}

Result<PredicateId> Ontology::FindPredicate(std::string_view name) const {
  auto it = predicate_by_name_.find(std::string(name));
  if (it == predicate_by_name_.end()) {
    return Status::NotFound("predicate: " + std::string(name));
  }
  return it->second;
}

bool Ontology::IsSubtypeOf(TypeId t, TypeId ancestor) const {
  while (t.valid()) {
    if (t == ancestor) return true;
    assert(t.value() < types_.size());
    t = types_[t.value()].parent;
  }
  return false;
}

void Ontology::Serialize(BinaryWriter* w) const {
  w->PutVarint64(types_.size());
  for (const auto& t : types_) {
    w->PutString(t.name);
    w->PutVarint64(t.parent.valid() ? t.parent.value() + 1 : 0);
  }
  w->PutVarint64(predicates_.size());
  for (const auto& p : predicates_) {
    w->PutString(p.name);
    w->PutVarint64(p.domain.valid() ? p.domain.value() + 1 : 0);
    w->PutU8(static_cast<uint8_t>(p.range_kind));
    w->PutVarint64(p.range_type.valid() ? p.range_type.value() + 1 : 0);
    w->PutBool(p.functional);
    w->PutBool(p.embedding_relevant);
    w->PutString(p.surface_form);
  }
}

Status Ontology::Deserialize(BinaryReader* r, Ontology* out) {
  *out = Ontology();
  uint64_t num_types = 0;
  SAGA_RETURN_IF_ERROR(r->GetVarint64(&num_types));
  for (uint64_t i = 0; i < num_types; ++i) {
    std::string name;
    uint64_t parent_plus1 = 0;
    SAGA_RETURN_IF_ERROR(r->GetString(&name));
    SAGA_RETURN_IF_ERROR(r->GetVarint64(&parent_plus1));
    TypeId parent =
        parent_plus1 == 0 ? TypeId::Invalid() : TypeId(parent_plus1 - 1);
    out->AddType(name, parent);
  }
  uint64_t num_preds = 0;
  SAGA_RETURN_IF_ERROR(r->GetVarint64(&num_preds));
  for (uint64_t i = 0; i < num_preds; ++i) {
    PredicateMeta meta;
    uint64_t domain_plus1 = 0;
    uint64_t range_plus1 = 0;
    uint8_t range_kind = 0;
    SAGA_RETURN_IF_ERROR(r->GetString(&meta.name));
    SAGA_RETURN_IF_ERROR(r->GetVarint64(&domain_plus1));
    SAGA_RETURN_IF_ERROR(r->GetU8(&range_kind));
    SAGA_RETURN_IF_ERROR(r->GetVarint64(&range_plus1));
    SAGA_RETURN_IF_ERROR(r->GetBool(&meta.functional));
    SAGA_RETURN_IF_ERROR(r->GetBool(&meta.embedding_relevant));
    SAGA_RETURN_IF_ERROR(r->GetString(&meta.surface_form));
    meta.domain =
        domain_plus1 == 0 ? TypeId::Invalid() : TypeId(domain_plus1 - 1);
    meta.range_type =
        range_plus1 == 0 ? TypeId::Invalid() : TypeId(range_plus1 - 1);
    if (range_kind > static_cast<uint8_t>(Value::Kind::kBool)) {
      return Status::Corruption("bad predicate range kind");
    }
    meta.range_kind = static_cast<Value::Kind>(range_kind);
    out->AddPredicate(std::move(meta));
  }
  return Status::OK();
}

}  // namespace saga::kg
