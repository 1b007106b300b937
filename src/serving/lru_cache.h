#ifndef SAGA_SERVING_LRU_CACHE_H_
#define SAGA_SERVING_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "text/hashing_vectorizer.h"

namespace saga::serving {

/// A decoded cache value, immutable once built: a vector of `length`
/// floats held as its entries whose bits are not all zero, in
/// ascending index order. Readers share it through a
/// `shared_ptr<const StoredVector>`; an update installs a new one.
struct StoredVector {
  uint32_t length = 0;
  text::SparseVector sparse;
};

/// Byte-budgeted LRU cache of immutable stored vectors, keyed by entity
/// id. The in-memory tier in front of the KV-store embedding cache. Not
/// thread-safe; callers shard and lock (see EmbeddingKvCache).
class LruCache {
 public:
  using Value = std::shared_ptr<const StoredVector>;
  /// Bytes charged per entry besides its value: the id.
  static constexpr size_t kKeyBytes = sizeof(uint64_t);

  explicit LruCache(size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Inserts or replaces the value of `key`, charging kKeyBytes +
  /// `value_bytes` (the value's encoded size). Returns false — without
  /// touching the cache — when that alone exceeds the byte budget:
  /// admitting an entry that can never fit would evict the whole
  /// working set and then be evicted itself, churning the list for
  /// nothing.
  bool Put(uint64_t key, Value value, size_t value_bytes);
  /// The value of `key`, now the most recent entry; nullptr when
  /// absent. A hit allocates nothing.
  Value Get(uint64_t key);
  void Erase(uint64_t key);
  bool Contains(uint64_t key) const { return entries_.count(key) > 0; }

 private:
  struct Node {
    uint64_t key;
    Value value;
    /// kKeyBytes + the value's encoded size.
    size_t charge;
  };
  using List = std::list<Node>;

  /// Evicts from the cold end until back under budget, but never the
  /// most-recently-touched entry — evicting what Put just wrote would
  /// turn an over-budget update into a silent drop.
  void EvictIfNeeded();

  size_t capacity_bytes_;
  size_t size_bytes_ = 0;
  List lru_;  // front = most recent
  std::unordered_map<uint64_t, List::iterator> entries_;
};

}  // namespace saga::serving

#endif  // SAGA_SERVING_LRU_CACHE_H_
