#ifndef SAGA_COMMON_HASH_H_
#define SAGA_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace saga {

/// 64-bit FNV-1a over arbitrary bytes. Stable across platforms and runs;
/// used for blocking keys, feature hashing, and bloom filters, so it must
/// never change. `seed` is the running state, so for string_views a, b
/// hashing streams: Hash64(a + b) == Hash64(b, Hash64(a)).
/// HashingVectorizer::EmbedPieces relies on this to hash a bigram without
/// building it: Hash64(a + "_" + b) ==
/// Hash64(b, (Hash64(a) ^ '_') * 0x100000001B3) (DESIGN.md, text path).
inline uint64_t Hash64(const void* data, size_t len,
                       uint64_t seed = 0xCBF29CE484222325ULL) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

inline uint64_t Hash64(std::string_view s,
                       uint64_t seed = 0xCBF29CE484222325ULL) {
  return Hash64(s.data(), s.size(), seed);
}

/// Finalizer-style avalanche mix (from MurmurHash3), useful to derive
/// independent hash functions from one value.
inline uint64_t Mix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2)));
}

}  // namespace saga

#endif  // SAGA_COMMON_HASH_H_
