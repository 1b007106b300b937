#include "storage/memtable.h"

namespace saga::storage {

namespace {
constexpr size_t kPerEntryOverhead = 32;
}

void MemTable::Put(std::string_view key, std::string_view value) {
  auto it = table_.find(key);
  if (it != table_.end()) {
    approximate_bytes_ -= it->second.size();
    it->second.assign(value);
    approximate_bytes_ += value.size();
    return;
  }
  table_.emplace(std::string(key), std::string(value));
  approximate_bytes_ += key.size() + value.size() + kPerEntryOverhead;
}

std::optional<std::string> MemTable::Get(std::string_view key) const {
  auto it = table_.find(key);
  if (it == table_.end()) return std::nullopt;
  return it->second;
}

}  // namespace saga::storage
