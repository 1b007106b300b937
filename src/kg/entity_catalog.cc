#include "kg/entity_catalog.h"

#include <algorithm>
#include <cassert>
#include <cctype>

namespace saga::kg {

std::string EntityCatalog::NormalizeSurface(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool last_space = true;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!last_space) {
        out.push_back(' ');
        last_space = true;
      }
    } else {
      out.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
      last_space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

EntityId EntityCatalog::AddEntity(std::string_view canonical_name,
                                  std::vector<TypeId> types,
                                  double popularity,
                                  std::string_view description) {
  EntityId id(records_.size());
  EntityRecord rec;
  rec.id = id;
  rec.canonical_name = std::string(canonical_name);
  rec.types = std::move(types);
  rec.popularity = popularity;
  rec.description = std::string(description);
  records_.push_back(std::move(rec));
  const std::string norm = NormalizeSurface(canonical_name);
  // First registrant wins canonical-name lookup; ambiguous names
  // (two "Michael Jordan"s) still both appear in the alias table.
  by_canonical_name_.emplace(norm, id);
  AddAlias(id, canonical_name);
  return id;
}

void EntityCatalog::AddAlias(EntityId id, std::string_view alias) {
  assert(id.value() < records_.size());
  EntityRecord& rec = records_[id.value()];
  std::string alias_str(alias);
  if (std::find(rec.aliases.begin(), rec.aliases.end(), alias_str) ==
      rec.aliases.end()) {
    rec.aliases.push_back(alias_str);
  }
  std::vector<EntityId>& bucket = alias_table_[NormalizeSurface(alias)];
  if (std::find(bucket.begin(), bucket.end(), id) == bucket.end()) {
    bucket.push_back(id);
  }
}

void EntityCatalog::SetDescription(EntityId id, std::string_view description) {
  records_[id.value()].description = std::string(description);
}

void EntityCatalog::SetPopularity(EntityId id, double popularity) {
  records_[id.value()].popularity = popularity;
}

void EntityCatalog::AddType(EntityId id, TypeId type) {
  auto& types = records_[id.value()].types;
  if (std::find(types.begin(), types.end(), type) == types.end()) {
    types.push_back(type);
  }
}

bool EntityCatalog::HasType(EntityId id, TypeId type) const {
  const auto& types = record(id).types;
  return std::find(types.begin(), types.end(), type) != types.end();
}

const std::vector<EntityId>& EntityCatalog::LookupAlias(
    std::string_view surface) const {
  auto it = alias_table_.find(NormalizeSurface(surface));
  if (it == alias_table_.end()) return empty_;
  return it->second;
}

Result<EntityId> EntityCatalog::FindByName(std::string_view name) const {
  auto it = by_canonical_name_.find(NormalizeSurface(name));
  if (it == by_canonical_name_.end()) {
    return Status::NotFound("entity: " + std::string(name));
  }
  return it->second;
}

std::vector<std::string> EntityCatalog::AllAliases() const {
  std::vector<std::string> out;
  out.reserve(alias_table_.size());
  for (const auto& [alias, ids] : alias_table_) out.push_back(alias);
  std::sort(out.begin(), out.end());
  return out;
}

void EntityCatalog::Serialize(BinaryWriter* w) const {
  w->PutVarint64(records_.size());
  for (const auto& rec : records_) {
    w->PutString(rec.canonical_name);
    w->PutString(rec.description);
    w->PutDouble(rec.popularity);
    w->PutVarint64(rec.types.size());
    for (TypeId t : rec.types) w->PutVarint64(t.value());
    w->PutVarint64(rec.aliases.size());
    for (const auto& a : rec.aliases) w->PutString(a);
  }
}

Status EntityCatalog::Deserialize(BinaryReader* r, EntityCatalog* out) {
  *out = EntityCatalog();
  uint64_t n = 0;
  SAGA_RETURN_IF_ERROR(r->GetVarint64(&n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    std::string description;
    double popularity = 0.0;
    SAGA_RETURN_IF_ERROR(r->GetString(&name));
    SAGA_RETURN_IF_ERROR(r->GetString(&description));
    SAGA_RETURN_IF_ERROR(r->GetDouble(&popularity));
    uint64_t num_types = 0;
    SAGA_RETURN_IF_ERROR(r->GetVarint64(&num_types));
    // Each type id takes at least one byte, so a count beyond the bytes
    // left is corrupt, and reserving it could throw.
    if (num_types > r->remaining()) {
      return Status::Corruption("entity type count exceeds input");
    }
    std::vector<TypeId> types;
    types.reserve(num_types);
    for (uint64_t t = 0; t < num_types; ++t) {
      uint64_t tv = 0;
      SAGA_RETURN_IF_ERROR(r->GetVarint64(&tv));
      types.push_back(TypeId(tv));
    }
    EntityId id = out->AddEntity(name, std::move(types), popularity,
                                 description);
    uint64_t num_aliases = 0;
    SAGA_RETURN_IF_ERROR(r->GetVarint64(&num_aliases));
    for (uint64_t a = 0; a < num_aliases; ++a) {
      std::string alias;
      SAGA_RETURN_IF_ERROR(r->GetString(&alias));
      out->AddAlias(id, alias);
    }
  }
  return Status::OK();
}

}  // namespace saga::kg
