#include "kg/triple_store.h"

#include <algorithm>
#include <cassert>

namespace saga::kg {

TripleIdx TripleStore::Add(Triple t) {
  assert(size() < kInvalidTripleIdx);
  const TripleIdx idx = static_cast<TripleIdx>(size());
  by_subject_[t.subject].push_back(idx);
  by_predicate_[t.predicate].push_back(idx);
  if (t.object.is_entity()) {
    by_object_entity_[t.object.entity()].push_back(idx);
  }
  if (blocks_.empty() || blocks_.back().size() == kBlockSize) {
    blocks_.emplace_back().reserve(kBlockSize);
  }
  blocks_.back().push_back(std::move(t));
  deleted_.push_back(false);
  ++live_count_;
  return idx;
}

void TripleStore::Remove(TripleIdx idx) {
  assert(idx < size());
  if (deleted_[idx]) return;
  deleted_[idx] = true;
  --live_count_;
  // Add appends ascending indexes, and erasing keeps the order.
  std::vector<TripleIdx>& live =
      by_subject_.find(triple(idx).subject)->second;
  live.erase(std::lower_bound(live.begin(), live.end(), idx));
}

std::vector<TripleIdx> TripleStore::Filtered(
    const std::vector<TripleIdx>* v) const {
  std::vector<TripleIdx> out;
  if (v == nullptr) return out;
  out.reserve(v->size());
  for (TripleIdx i : *v) {
    if (!deleted_[i]) out.push_back(i);
  }
  return out;
}

std::span<const TripleIdx> TripleStore::BySubject(EntityId s) const {
  auto it = by_subject_.find(s);
  if (it == by_subject_.end()) return {};
  return it->second;
}

std::vector<TripleIdx> TripleStore::BySubjectPredicate(EntityId s,
                                                       PredicateId p) const {
  // A subject holds few triples, so filtering its list costs little and
  // saves a (subject, predicate) index: a map entry and a vector per pair.
  std::vector<TripleIdx> out;
  for (TripleIdx i : BySubject(s)) {
    if (triple(i).predicate == p) out.push_back(i);
  }
  return out;
}

std::vector<TripleIdx> TripleStore::ByPredicate(PredicateId p) const {
  auto it = by_predicate_.find(p);
  return Filtered(it == by_predicate_.end() ? nullptr : &it->second);
}

std::vector<TripleIdx> TripleStore::ByObjectEntity(EntityId o) const {
  auto it = by_object_entity_.find(o);
  return Filtered(it == by_object_entity_.end() ? nullptr : &it->second);
}

bool TripleStore::HasFact(EntityId s, PredicateId p) const {
  for (TripleIdx i : BySubject(s)) {
    if (triple(i).predicate == p) return true;
  }
  return false;
}

void TripleStore::Serialize(BinaryWriter* w) const {
  w->PutVarint64(live_size());
  ForEach([w](TripleIdx, const Triple& t) {
    w->PutVarint64(t.subject.value());
    w->PutVarint64(t.predicate.value());
    t.object.Serialize(w);
    w->PutVarint64(t.provenance.source.valid() ? t.provenance.source.value() + 1
                                               : 0);
    w->PutDouble(t.provenance.confidence);
    w->PutVarint64Signed(t.provenance.timestamp);
  });
}

Status TripleStore::Deserialize(BinaryReader* r, TripleStore* out) {
  *out = TripleStore();
  uint64_t n = 0;
  SAGA_RETURN_IF_ERROR(r->GetVarint64(&n));
  for (uint64_t i = 0; i < n; ++i) {
    Triple t;
    uint64_t sv = 0;
    uint64_t pv = 0;
    uint64_t src_plus1 = 0;
    SAGA_RETURN_IF_ERROR(r->GetVarint64(&sv));
    SAGA_RETURN_IF_ERROR(r->GetVarint64(&pv));
    t.subject = EntityId(sv);
    t.predicate = PredicateId(pv);
    SAGA_RETURN_IF_ERROR(Value::Deserialize(r, &t.object));
    SAGA_RETURN_IF_ERROR(r->GetVarint64(&src_plus1));
    t.provenance.source =
        src_plus1 == 0 ? SourceId::Invalid() : SourceId(src_plus1 - 1);
    SAGA_RETURN_IF_ERROR(r->GetDouble(&t.provenance.confidence));
    SAGA_RETURN_IF_ERROR(r->GetVarint64Signed(&t.provenance.timestamp));
    out->Add(std::move(t));
  }
  return Status::OK();
}

}  // namespace saga::kg
