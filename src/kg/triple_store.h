#ifndef SAGA_KG_TRIPLE_STORE_H_
#define SAGA_KG_TRIPLE_STORE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/serialization.h"
#include "common/status.h"
#include "kg/ids.h"
#include "kg/triple.h"

namespace saga::kg {

/// Indexed in-memory triple store with subject / predicate / object-entity
/// access paths.
/// Triples are appended; deletions tombstone in place so TripleIdx stays
/// stable (views and annotation indexes hold TripleIdx references).
class TripleStore {
 public:
  TripleStore() = default;

  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;
  TripleStore(TripleStore&&) = default;
  TripleStore& operator=(TripleStore&&) = default;

  /// Appends a triple; duplicates are allowed (multi-source facts).
  TripleIdx Add(Triple t);

  /// Tombstones a triple and drops it from its subject's list. Safe to
  /// call twice.
  void Remove(TripleIdx idx);

  bool IsLive(TripleIdx idx) const { return !deleted_[idx]; }
  const Triple& triple(TripleIdx idx) const {
    return blocks_[idx >> kBlockBits][idx & (kBlockSize - 1)];
  }
  size_t size() const { return deleted_.size(); }
  size_t live_size() const { return live_count_; }

  /// Live triple indexes with the given subject, in insertion order.
  /// Valid until the next Add or Remove; allocates nothing.
  std::span<const TripleIdx> BySubject(EntityId s) const;
  /// Live triple indexes with the given subject and predicate.
  std::vector<TripleIdx> BySubjectPredicate(EntityId s, PredicateId p) const;
  /// Live triple indexes with the given predicate.
  std::vector<TripleIdx> ByPredicate(PredicateId p) const;
  /// Live triple indexes whose object is the given entity.
  std::vector<TripleIdx> ByObjectEntity(EntityId o) const;

  /// True if a live triple (s, p, *) exists. Allocates nothing.
  bool HasFact(EntityId s, PredicateId p) const;
  /// True if a live triple (s, p, o) exists.
  bool Contains(EntityId s, PredicateId p, const Value& o) const;

  /// Number of live triples per predicate; the view builder's
  /// min-frequency filter (§2) uses this.
  std::unordered_map<PredicateId, uint64_t> PredicateFrequencies() const;

  /// Invokes fn(idx, triple) for every live triple.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (TripleIdx i = 0; i < size(); ++i) {
      if (!deleted_[i]) fn(i, triple(i));
    }
  }

  void Serialize(BinaryWriter* w) const;
  static Status Deserialize(BinaryReader* r, TripleStore* out);

 private:
  std::vector<TripleIdx> Filtered(const std::vector<TripleIdx>* v) const;

  /// Triples live in blocks of kBlockSize that are reserved once and
  /// never move, so a growing store copies nothing and leaves no freed
  /// buffers behind in the heap.
  static constexpr size_t kBlockBits = 12;
  static constexpr size_t kBlockSize = size_t{1} << kBlockBits;
  std::vector<std::vector<Triple>> blocks_;
  std::vector<bool> deleted_;
  size_t live_count_ = 0;

  /// Holds live triples only (Remove erases), so BySubject is a span.
  /// The predicate and object lists keep tombstones and are filtered.
  std::unordered_map<EntityId, std::vector<TripleIdx>> by_subject_;
  std::unordered_map<PredicateId, std::vector<TripleIdx>> by_predicate_;
  std::unordered_map<EntityId, std::vector<TripleIdx>> by_object_entity_;
};

}  // namespace saga::kg

#endif  // SAGA_KG_TRIPLE_STORE_H_
