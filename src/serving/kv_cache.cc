#include "serving/kv_cache.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/serialization.h"

namespace saga::serving {

Result<std::unique_ptr<EmbeddingKvCache>> EmbeddingKvCache::Open(
    const std::string& dir, size_t memory_budget_bytes) {
  storage::KvStore::Options opts;
  opts.use_wal = false;  // cache contents are rebuildable
  // Flush/compaction run on the store's maintenance thread so a
  // rebuild never blocks the Get path behind storage maintenance.
  opts.background_maintenance = true;
  SAGA_ASSIGN_OR_RETURN(auto kv, storage::KvStore::Open(dir, opts));
  return std::unique_ptr<EmbeddingKvCache>(
      new EmbeddingKvCache(std::move(kv), memory_budget_bytes));
}

EmbeddingKvCache::EmbeddingKvCache(std::unique_ptr<storage::KvStore> kv,
                                   size_t memory_budget_bytes)
    : kv_(std::move(kv)) {
  const size_t per_shard =
      std::max<size_t>(memory_budget_bytes / kShards, size_t{1});
  for (auto& shard : shards_) {
    shard = std::make_unique<Shard>(per_shard);
  }
}

EmbeddingKvCache::Shard& EmbeddingKvCache::ShardFor(kg::EntityId id) {
  return *shards_[Mix64(id.value()) % kShards];
}

std::string EmbeddingKvCache::KeyFor(kg::EntityId id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "emb:%016llx",
                static_cast<unsigned long long>(id.value()));
  return buf;
}

namespace {

/// First byte of every value. The dense format this replaced began
/// with a length, so its values fail Decode and count as misses.
constexpr uint8_t kSparseFormat = 0x53;
constexpr size_t kHeaderBytes = 1 + 4 + 4;
constexpr size_t kEntryBytes = sizeof(uint16_t) + sizeof(float);

}  // namespace

StoredVector EmbeddingKvCache::FromDense(const std::vector<float>& vec) {
  StoredVector out;
  out.length = static_cast<uint32_t>(vec.size());
  for (size_t i = 0; i < vec.size(); ++i) {
    if (std::bit_cast<uint32_t>(vec[i]) != 0) {
      out.sparse.index.push_back(static_cast<uint16_t>(i));
      out.sparse.value.push_back(vec[i]);
    }
  }
  return out;
}

std::string EmbeddingKvCache::Encode(const StoredVector& value) {
  const size_t n = value.sparse.index.size();
  std::string out;
  out.reserve(kHeaderBytes + n * kEntryBytes);
  BinaryWriter w(&out);
  w.PutU8(kSparseFormat);
  w.PutFixed32(value.length);
  w.PutFixed32(static_cast<uint32_t>(n));
  for (uint16_t i : value.sparse.index) {
    w.PutU8(static_cast<uint8_t>(i));
    w.PutU8(static_cast<uint8_t>(i >> 8));
  }
  for (float v : value.sparse.value) w.PutFloat(v);
  return out;
}

Result<StoredVector> EmbeddingKvCache::Decode(std::string_view bytes) {
  BinaryReader r(bytes);
  uint8_t format = 0;
  uint32_t length = 0;
  uint32_t n = 0;
  SAGA_RETURN_IF_ERROR(r.GetU8(&format));
  if (format != kSparseFormat) {
    return Status::Corruption("cached vector: unknown format byte");
  }
  SAGA_RETURN_IF_ERROR(r.GetFixed32(&length));
  SAGA_RETURN_IF_ERROR(r.GetFixed32(&n));
  if (length > kMaxLength || n > length) {
    return Status::Corruption("cached vector: length or count out of range");
  }
  if (r.remaining() != size_t{n} * kEntryBytes) {
    return Status::Corruption("cached vector: size does not match count");
  }
  StoredVector out;
  out.length = length;
  std::vector<uint16_t>& index = out.sparse.index;
  index.resize(n);
  out.sparse.value.resize(n);
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data()) +
                  kHeaderBytes;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t i = p[2 * k] | (uint32_t{p[2 * k + 1]} << 8);
    if (i >= length || (k > 0 && i <= index[k - 1])) {
      return Status::Corruption("cached vector: index out of order or range");
    }
    index[k] = static_cast<uint16_t>(i);
  }
  SAGA_RETURN_IF_ERROR(r.Skip(size_t{n} * sizeof(uint16_t)));
  for (size_t k = 0; k < n; ++k) {
    SAGA_RETURN_IF_ERROR(r.GetFloat(&out.sparse.value[k]));
    if (std::bit_cast<uint32_t>(out.sparse.value[k]) == 0) {
      return Status::Corruption("cached vector: stored entry is +0");
    }
  }
  return out;
}

Status EmbeddingKvCache::Put(kg::EntityId id, const std::vector<float>& vec) {
  if (vec.size() > kMaxLength) {
    return Status::InvalidArgument("cached vector longer than 65536");
  }
  auto value = std::make_shared<const StoredVector>(FromDense(vec));
  const std::string encoded = Encode(*value);
  SAGA_RETURN_IF_ERROR(kv_->Put(KeyFor(id), encoded));
  // Refresh the in-memory tier if the key is resident: leaving the old
  // value in the LRU would serve a stale embedding forever to any
  // entity read before this update. Absent keys are not write-
  // allocated — the LRU stays read-driven (bulk precompute would
  // otherwise wipe the hot working set).
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.write_seq;
  if (shard.lru.Contains(id.value()) &&
      !shard.lru.Put(id.value(), std::move(value), encoded.size())) {
    shard.lru.Erase(id.value());  // too big to refresh: drop, never stale
  }
  return Status::OK();
}

std::shared_ptr<const StoredVector> EmbeddingKvCache::Find(kg::EntityId id) {
  Shard& shard = ShardFor(id);
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (LruCache::Value hit = shard.lru.Get(id.value())) {
      memory_hits_.fetch_add(1, std::memory_order_relaxed);
      SAGA_COUNTER("serving.kv_cache.memory_hits").Add();
      UpdateHitRateGauges();
      return hit;
    }
    seq = shard.write_seq;
  }
  // Disk probe outside any shard lock: a slow or compacting store must
  // not serialize unrelated reads behind this one. A value that does
  // not decode (torn, corrupt, or an older format) is a miss: the
  // caller recomputes it.
  auto from_disk = kv_->Get(KeyFor(id));
  Result<StoredVector> decoded = from_disk.ok()
                                     ? Decode(*from_disk)
                                     : Result<StoredVector>(from_disk.status());
  if (!decoded.ok()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    SAGA_COUNTER("serving.kv_cache.misses").Add();
    UpdateHitRateGauges();
    return nullptr;
  }
  disk_hits_.fetch_add(1, std::memory_order_relaxed);
  SAGA_COUNTER("serving.kv_cache.disk_hits").Add();
  auto value =
      std::make_shared<const StoredVector>(std::move(decoded).value());
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.write_seq == seq) {
      (void)shard.lru.Put(id.value(), value, from_disk->size());
    }
  }
  UpdateHitRateGauges();
  return value;
}

Result<std::vector<float>> EmbeddingKvCache::Get(kg::EntityId id) {
  const std::shared_ptr<const StoredVector> stored = Find(id);
  if (stored == nullptr) return Status::NotFound("embedding not cached");
  std::vector<float> out(stored->length, 0.0f);
  for (size_t k = 0; k < stored->sparse.index.size(); ++k) {
    out[stored->sparse.index[k]] = stored->sparse.value[k];
  }
  return out;
}

EmbeddingKvCache::Stats EmbeddingKvCache::stats() const {
  Stats s;
  s.memory_hits = memory_hits_.load(std::memory_order_relaxed);
  s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  return s;
}

void EmbeddingKvCache::UpdateHitRateGauges() const {
  // An LRU hit is exactly a memory hit and an LRU miss is exactly a
  // disk hit or full miss, so both gauges derive from the same atomic
  // tallies — no shard locks needed.
  const uint64_t memory = memory_hits_.load(std::memory_order_relaxed);
  const uint64_t disk = disk_hits_.load(std::memory_order_relaxed);
  const uint64_t miss = misses_.load(std::memory_order_relaxed);
  const uint64_t lookups = memory + disk + miss;
  if (lookups > 0) {
    SAGA_GAUGE("serving.kv_cache.hit_rate")
        .Set(static_cast<double>(memory + disk) /
             static_cast<double>(lookups));
    SAGA_GAUGE("serving.lru_cache.hit_rate")
        .Set(static_cast<double>(memory) / static_cast<double>(lookups));
  }
}

}  // namespace saga::serving
