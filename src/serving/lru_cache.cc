#include "serving/lru_cache.h"

namespace saga::serving {

bool LruCache::Put(uint64_t key, Value value, size_t value_bytes) {
  const size_t charge = kKeyBytes + value_bytes;
  if (charge > capacity_bytes_) {
    return false;
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    Node& node = *it->second;
    size_bytes_ -= node.charge;
    node.value = std::move(value);
    node.charge = charge;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Node{key, std::move(value), charge});
    entries_.emplace(key, lru_.begin());
  }
  size_bytes_ += charge;
  EvictIfNeeded();
  return true;
}

LruCache::Value LruCache::Get(uint64_t key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

void LruCache::Erase(uint64_t key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  size_bytes_ -= it->second->charge;
  lru_.erase(it->second);
  entries_.erase(it);
}

void LruCache::EvictIfNeeded() {
  // size() > 1 spares the most-recently-touched entry (always
  // lru_.front(), and by the oversized-reject above always within
  // budget on its own).
  while (size_bytes_ > capacity_bytes_ && lru_.size() > 1) {
    const Node& victim = lru_.back();
    size_bytes_ -= victim.charge;
    entries_.erase(victim.key);
    lru_.pop_back();
  }
}

}  // namespace saga::serving
