#ifndef SAGA_KG_ENTITY_CATALOG_H_
#define SAGA_KG_ENTITY_CATALOG_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/serialization.h"
#include "common/status.h"
#include "kg/ids.h"

namespace saga::kg {

/// Textual / lexical features of an entity, used by entity linking and
/// the contextual reranker (name, description, popularity; §3).
struct EntityRecord {
  EntityId id;
  std::string canonical_name;
  std::vector<std::string> aliases;
  std::string description;
  std::vector<TypeId> types;
  /// Aggregated popularity signal in [0, 1]; open-domain KGs derive this
  /// from page views / query logs. Drives fact ranking priors and
  /// linking disambiguation.
  double popularity = 0.0;
};

/// Dense registry of entities plus an alias lookup table (normalized
/// alias -> candidate entities). This is the candidate-generation
/// substrate for semantic annotation.
class EntityCatalog {
 public:
  EntityCatalog() = default;

  /// Creates a new entity with a dense id. Canonical name is
  /// automatically registered as an alias.
  EntityId AddEntity(std::string_view canonical_name,
                     std::vector<TypeId> types, double popularity = 0.0,
                     std::string_view description = "");

  /// Registers an extra surface form for the entity.
  void AddAlias(EntityId id, std::string_view alias);

  void SetPopularity(EntityId id, double popularity);

  const EntityRecord& record(EntityId id) const {
    return records_[id.value()];
  }
  const std::string& name(EntityId id) const {
    return record(id).canonical_name;
  }
  double popularity(EntityId id) const { return record(id).popularity; }
  bool HasType(EntityId id, TypeId type) const;

  size_t size() const { return records_.size(); }
  const std::vector<EntityRecord>& records() const { return records_; }

  /// Entities whose alias set contains the normalized form of `surface`.
  /// Empty vector when unknown. This is the "alias table" of the
  /// candidate generator.
  const std::vector<EntityId>& LookupAlias(std::string_view surface) const;

  /// Exact-canonical-name lookup (normalized).
  Result<EntityId> FindByName(std::string_view name) const;

  /// All alias surface strings, for gazetteer construction.
  std::vector<std::string> AllAliases() const;

  /// Lowercased, whitespace-collapsed key used for the alias table.
  static std::string NormalizeSurface(std::string_view s);

  void Serialize(BinaryWriter* w) const;
  static Status Deserialize(BinaryReader* r, EntityCatalog* out);

 private:
  std::vector<EntityRecord> records_;
  std::unordered_map<std::string, std::vector<EntityId>> alias_table_;
  std::unordered_map<std::string, EntityId> by_canonical_name_;
  std::vector<EntityId> empty_;
};

}  // namespace saga::kg

#endif  // SAGA_KG_ENTITY_CATALOG_H_
