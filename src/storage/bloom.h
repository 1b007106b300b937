#ifndef SAGA_STORAGE_BLOOM_H_
#define SAGA_STORAGE_BLOOM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace saga::storage {

/// Standard Bloom filter with double hashing (Kirsch-Mitzenmacher).
/// Serializable so SSTables embed one per file.
class BloomFilter {
 public:
  /// Sizes the filter for `expected_keys` at `bits_per_key` (10 bits/key
  /// gives ~1% false positives).
  BloomFilter(size_t expected_keys, int bits_per_key);

  /// Reconstructs from Serialize() output.
  static BloomFilter FromBytes(std::string_view bytes);

  void Add(std::string_view key);
  bool MayContain(std::string_view key) const;

  std::string Serialize() const;

 private:
  BloomFilter() = default;

  int num_probes_ = 1;
  std::vector<uint8_t> bits_;
};

}  // namespace saga::storage

#endif  // SAGA_STORAGE_BLOOM_H_
