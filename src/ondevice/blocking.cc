#include "ondevice/blocking.h"

#include <algorithm>
#include <set>

#include "storage/external_sorter.h"
#include "text/tokenizer.h"

namespace saga::ondevice {

Blocker::Blocker(Options options) : options_(std::move(options)) {}

std::vector<std::string> Blocker::KeysFor(const SourceRecord& record) {
  std::set<std::string> keys;
  const std::string phone = NormalizePhone(record.phone);
  if (!phone.empty()) keys.insert("p:" + phone);
  if (!record.email.empty()) {
    std::string email = record.email;
    for (char& c : email) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    keys.insert("e:" + email);
  }
  // Name-token prefixes catch "Tim" vs "Timothy".
  for (const text::Token& t : text::Tokenize(record.name)) {
    if (t.text.size() >= 3) {
      keys.insert("n:" + t.text.substr(0, 3));
    }
  }
  return std::vector<std::string>(keys.begin(), keys.end());
}

Result<std::vector<CandidatePair>> Blocker::CandidatePairs(
    const std::vector<SourceRecord>& records) {
  storage::ExternalSorter::Options sorter_opts;
  sorter_opts.memory_budget_bytes = options_.memory_budget_bytes;
  sorter_opts.spill_dir = options_.spill_dir;
  storage::ExternalSorter sorter(sorter_opts);

  for (uint32_t i = 0; i < records.size(); ++i) {
    for (const std::string& key : KeysFor(records[i])) {
      char value[4];
      value[0] = static_cast<char>(i & 0xFF);
      value[1] = static_cast<char>((i >> 8) & 0xFF);
      value[2] = static_cast<char>((i >> 16) & 0xFF);
      value[3] = static_cast<char>((i >> 24) & 0xFF);
      SAGA_RETURN_IF_ERROR(sorter.Add(key, std::string_view(value, 4)));
      ++stats_.keys_emitted;
    }
  }

  SAGA_ASSIGN_OR_RETURN(auto it, sorter.Sort());
  std::set<CandidatePair> pairs;
  std::string current_key;
  std::vector<uint32_t> block;
  auto flush_block = [&]() {
    if (block.empty()) return;
    ++stats_.blocks;
    if (block.size() > kMaxBlockSize) {
      ++stats_.oversize_blocks_skipped;
      block.clear();
      return;
    }
    std::sort(block.begin(), block.end());
    for (size_t a = 0; a < block.size(); ++a) {
      for (size_t b = a + 1; b < block.size(); ++b) {
        if (block[a] != block[b]) pairs.emplace(block[a], block[b]);
      }
    }
    block.clear();
  };
  while (it->Valid()) {
    const auto& rec = it->Current();
    if (rec.key != current_key) {
      flush_block();
      current_key = rec.key;
    }
    const unsigned char* v =
        reinterpret_cast<const unsigned char*>(rec.value.data());
    block.push_back(static_cast<uint32_t>(v[0]) |
                    (static_cast<uint32_t>(v[1]) << 8) |
                    (static_cast<uint32_t>(v[2]) << 16) |
                    (static_cast<uint32_t>(v[3]) << 24));
    SAGA_RETURN_IF_ERROR(it->Next());
  }
  flush_block();

  stats_.runs_spilled = sorter.runs_spilled();
  stats_.bytes_spilled = sorter.bytes_spilled();
  stats_.peak_buffer_bytes = sorter.peak_buffer_bytes();
  stats_.pairs = pairs.size();
  return std::vector<CandidatePair>(pairs.begin(), pairs.end());
}

}  // namespace saga::ondevice
