#include "kg/knowledge_graph.h"

#include <algorithm>

#include "common/checksum.h"
#include "common/file_util.h"
#include "common/serialization.h"

namespace saga::kg {

namespace {
constexpr uint32_t kSnapshotMagic = 0x5341474Bu;  // "SAGK"
/// Version 2 moved the magic into the CRC'd binary frame.
constexpr uint32_t kSnapshotVersion = 2;

/// Corruption unless every id a decoded snapshot holds names something
/// it decoded: each entity's types, and each triple's subject,
/// predicate, entity object and source. Readers index by these ids
/// unchecked (IsInstanceOf, catalog().record()).
Status CheckIds(const KnowledgeGraph& kg) {
  const size_t num_types = kg.ontology().num_types();
  const size_t num_entities = kg.num_entities();
  for (size_t e = 0; e < num_entities; ++e) {
    for (TypeId t : kg.catalog().record(EntityId(e)).types) {
      if (t.value() >= num_types) {
        return Status::Corruption("entity type id out of range");
      }
    }
  }
  const size_t num_predicates = kg.ontology().num_predicates();
  const size_t num_sources = kg.num_sources();
  Status status;
  kg.triples().ForEach([&](TripleIdx, const Triple& t) {
    if (!status.ok()) return;
    if (t.subject.value() >= num_entities) {
      status = Status::Corruption("triple subject id out of range");
    } else if (t.predicate.value() >= num_predicates) {
      status = Status::Corruption("triple predicate id out of range");
    } else if (t.object.is_entity() &&
               t.object.entity().value() >= num_entities) {
      status = Status::Corruption("triple object id out of range");
    } else if (t.provenance.source.valid() &&
               t.provenance.source.value() >= num_sources) {
      status = Status::Corruption("triple source id out of range");
    }
  });
  return status;
}

}  // namespace

SourceId KnowledgeGraph::AddSource(std::string_view name, double quality) {
  for (size_t i = 0; i < source_names_.size(); ++i) {
    if (source_names_[i] == name) return SourceId(i);
  }
  source_names_.emplace_back(name);
  source_qualities_.push_back(quality);
  return SourceId(source_names_.size() - 1);
}

Result<SourceId> KnowledgeGraph::FindSource(std::string_view name) const {
  for (size_t i = 0; i < source_names_.size(); ++i) {
    if (source_names_[i] == name) return SourceId(i);
  }
  return Status::NotFound("source: " + std::string(name));
}

TripleIdx KnowledgeGraph::AddFact(EntityId s, PredicateId p, Value o,
                                  SourceId source, double confidence,
                                  int64_t timestamp) {
  Triple t;
  t.subject = s;
  t.predicate = p;
  t.object = std::move(o);
  t.provenance.source = source;
  t.provenance.confidence = confidence;
  t.provenance.timestamp = timestamp == 0 ? NowTimestamp() : timestamp;
  logical_clock_ = std::max(logical_clock_, t.provenance.timestamp);
  return triples_.Add(std::move(t));
}

std::vector<Value> KnowledgeGraph::ObjectsOf(EntityId s, PredicateId p) const {
  std::vector<Value> out;
  for (TripleIdx idx : triples_.BySubject(s)) {
    const Triple& t = triples_.triple(idx);
    if (t.predicate == p) out.push_back(t.object);
  }
  return out;
}

std::vector<EntityId> KnowledgeGraph::Neighbors(EntityId e) const {
  std::vector<EntityId> out;
  for (TripleIdx idx : triples_.BySubject(e)) {
    const Triple& t = triples_.triple(idx);
    if (t.object.is_entity()) out.push_back(t.object.entity());
  }
  for (TripleIdx idx : triples_.ByObjectEntity(e)) {
    out.push_back(triples_.triple(idx).subject);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool KnowledgeGraph::IsInstanceOf(EntityId e, TypeId type) const {
  for (TypeId has : catalog_.record(e).types) {
    if (ontology_.IsSubtypeOf(has, type)) return true;
  }
  return false;
}

Status KnowledgeGraph::Save(const std::string& path) const {
  std::string buf;
  BinaryWriter w(&buf);
  w.PutFixed32(kSnapshotVersion);
  ontology_.Serialize(&w);
  catalog_.Serialize(&w);
  triples_.Serialize(&w);
  w.PutVarint64(source_names_.size());
  for (size_t i = 0; i < source_names_.size(); ++i) {
    w.PutString(source_names_[i]);
    w.PutDouble(source_qualities_[i]);
  }
  w.PutVarint64Signed(logical_clock_);
  return WriteStringToFile(path, EncodeBinaryFrame(kSnapshotMagic, buf));
}

Result<KnowledgeGraph> KnowledgeGraph::Load(const std::string& path) {
  SAGA_ASSIGN_OR_RETURN(std::string buf, ReadFileToString(path));
  SAGA_ASSIGN_OR_RETURN(std::string_view payload,
                        DecodeBinaryFrame(buf, kSnapshotMagic, path));
  BinaryReader r(payload);
  uint32_t version = 0;
  SAGA_RETURN_IF_ERROR(r.GetFixed32(&version));
  if (version != kSnapshotVersion) {
    return Status::Corruption("unsupported KG snapshot version " +
                              std::to_string(version));
  }
  KnowledgeGraph kg;
  SAGA_RETURN_IF_ERROR(Ontology::Deserialize(&r, &kg.ontology_));
  SAGA_RETURN_IF_ERROR(EntityCatalog::Deserialize(&r, &kg.catalog_));
  SAGA_RETURN_IF_ERROR(TripleStore::Deserialize(&r, &kg.triples_));
  uint64_t num_sources = 0;
  SAGA_RETURN_IF_ERROR(r.GetVarint64(&num_sources));
  for (uint64_t i = 0; i < num_sources; ++i) {
    std::string name;
    double quality = 1.0;
    SAGA_RETURN_IF_ERROR(r.GetString(&name));
    SAGA_RETURN_IF_ERROR(r.GetDouble(&quality));
    kg.AddSource(name, quality);
  }
  SAGA_RETURN_IF_ERROR(r.GetVarint64Signed(&kg.logical_clock_));
  if (!r.AtEnd()) {
    return Status::Corruption("bytes after the KG snapshot in " + path);
  }
  SAGA_RETURN_IF_ERROR(CheckIds(kg));
  return kg;
}

}  // namespace saga::kg
