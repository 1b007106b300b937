#ifndef SAGA_STORAGE_MEMTABLE_H_
#define SAGA_STORAGE_MEMTABLE_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace saga::storage {

/// In-memory sorted write buffer.
class MemTable {
 public:
  void Put(std::string_view key, std::string_view value);

  /// nullopt = key unknown here (check older levels).
  std::optional<std::string> Get(std::string_view key) const;

  size_t ApproximateBytes() const { return approximate_bytes_; }
  bool empty() const { return table_.empty(); }

  /// Sorted iteration over all entries.
  const std::map<std::string, std::string, std::less<>>& entries() const {
    return table_;
  }

 private:
  std::map<std::string, std::string, std::less<>> table_;
  size_t approximate_bytes_ = 0;
};

}  // namespace saga::storage

#endif  // SAGA_STORAGE_MEMTABLE_H_
