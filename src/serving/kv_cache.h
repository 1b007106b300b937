#ifndef SAGA_SERVING_KV_CACHE_H_
#define SAGA_SERVING_KV_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "embedding/embedding_store.h"
#include "kg/ids.h"
#include "serving/lru_cache.h"
#include "storage/kv_store.h"

namespace saga::serving {

/// Two-tier low-latency embedding cache (§3.2: "precompute entity
/// embeddings ... and cache the results in a low-latency key-value
/// store"): an id-keyed in-memory LRU of immutable decoded values over
/// the disk KV store. Both tiers hold one sparse value format (see
/// Encode), so a memory hit is one id probe and no decode.
///
/// Thread-safe and built not to stall readers: the LRU tier is sharded
/// by a mix of the id (one small mutex per shard, held only for the
/// in-memory probe or insert, never across disk IO), the KV tier is the
/// concurrent KvStore in background-maintenance mode, and PutAll's
/// rebuild holds no lock at all — concurrent Gets keep serving from
/// whichever tier has the key while the rebuild flushes and compacts
/// underneath them.
class EmbeddingKvCache {
 public:
  /// Point-in-time snapshot of the tallies (the live counters are
  /// atomics bumped from many threads).
  struct Stats {
    uint64_t memory_hits = 0;
    uint64_t disk_hits = 0;
    uint64_t misses = 0;
  };

  /// Opens the cache at `dir`; `memory_budget_bytes` sizes the LRU tier
  /// (split evenly across the shards).
  static Result<std::unique_ptr<EmbeddingKvCache>> Open(
      const std::string& dir, size_t memory_budget_bytes);

  /// Bulk-writes all embeddings of a store (the precompute step), then
  /// flushes and compacts the disk tier. Safe to run while readers are
  /// serving; no lock is held across the rebuild.
  Status PutAll(const embedding::EmbeddingStore& store);

  /// Writes through to disk and refreshes the LRU entry when the key
  /// is resident there, so a reader that cached the old vector sees
  /// the new one immediately (absent keys are not write-allocated).
  /// InvalidArgument when `vec` is longer than kMaxLength.
  Status Put(kg::EntityId id, const std::vector<float>& vec);

  /// The hot-path read: the stored value of `id`, or nullptr when the
  /// entity was never cached or its bytes do not decode (the caller
  /// recomputes it). A memory hit locks one shard, probes it by id and
  /// copies a shared_ptr; a memory miss reads the disk tier and fills
  /// the LRU. Thread-safe: the annotation pipeline reads profiles from
  /// worker threads.
  std::shared_ptr<const StoredVector> Find(kg::EntityId id);

  /// Find scattered into a dense vector of the stored length, which is
  /// exactly the vector Put stored. NotFound when Find gives nullptr.
  Result<std::vector<float>> Get(kg::EntityId id);

  Stats stats() const;
  storage::KvStore* kv() { return kv_.get(); }

  /// Longest vector the value format holds: its indices are uint16_t.
  static constexpr size_t kMaxLength = size_t{1} << 16;

  /// `vec` as a stored value: every entry whose bits are not all zero,
  /// so -0.0f is kept and ToDense gives back `vec` bit for bit.
  /// Requires vec.size() <= kMaxLength.
  static StoredVector FromDense(const std::vector<float>& vec);
  static std::vector<float> ToDense(const StoredVector& value);

  /// The value format, on disk and in memory: a format byte, the
  /// vector length (fixed32), the entry count (fixed32), the ascending
  /// uint16_t indices, then the float values, all little-endian. A
  /// 41-entry profile takes 9 + 41 * 6 = 255 bytes.
  static std::string Encode(const StoredVector& value);
  /// Total: any input gives a valid value or Corruption, never a
  /// crash. Rejects a wrong format byte, a length above kMaxLength, a
  /// count above the length, a byte size that is not exactly the
  /// count's, indices that are not strictly ascending or not below the
  /// length, and an entry whose bits are all zero.
  static Result<StoredVector> Decode(std::string_view bytes);

 private:
  static constexpr size_t kShards = 8;

  struct Shard {
    std::mutex mu;
    LruCache lru;
    /// Bumped by every Put under `mu`. A disk fill installs what it
    /// read only if this has not moved since its memory miss, so a Put
    /// that lands between the disk read and the insert is never undone
    /// by the older value.
    uint64_t write_seq = 0;
    explicit Shard(size_t capacity_bytes) : lru(capacity_bytes) {}
  };

  EmbeddingKvCache(std::unique_ptr<storage::KvStore> kv,
                   size_t memory_budget_bytes);

  Shard& ShardFor(kg::EntityId id);

  /// Refreshes the serving.kv_cache / serving.lru_cache hit-rate
  /// gauges from the running tallies (lock-free).
  void UpdateHitRateGauges() const;

  static std::string KeyFor(kg::EntityId id);

  std::unique_ptr<storage::KvStore> kv_;
  std::array<std::unique_ptr<Shard>, kShards> shards_;
  std::atomic<uint64_t> memory_hits_{0};
  std::atomic<uint64_t> disk_hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace saga::serving

#endif  // SAGA_SERVING_KV_CACHE_H_
