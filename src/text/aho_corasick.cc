#include "text/aho_corasick.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace saga::text {

uint32_t AhoCorasick::AddPattern(std::string_view pattern) {
  assert(!built_);
  int32_t node = 0;
  for (unsigned char c : pattern) {
    const auto [it, inserted] =
        trie_.try_emplace(static_cast<uint64_t>(node) << 8 | c,
                          static_cast<int32_t>(nodes_.size()));
    if (inserted) nodes_.emplace_back();
    node = it->second;
  }
  const uint32_t idx = static_cast<uint32_t>(patterns_.size());
  next_output_.push_back(-1);
  int32_t* slot = &nodes_[node].output;  // append: keep add order
  while (*slot >= 0) slot = &next_output_[*slot];
  *slot = static_cast<int32_t>(idx);
  patterns_.emplace_back(pattern);
  return idx;
}

int32_t AhoCorasick::Child(int32_t node, uint8_t c) const {
  const auto begin = edge_bytes_.begin() + edge_offsets_[node];
  const auto end = edge_bytes_.begin() + edge_offsets_[node + 1];
  const auto it = std::lower_bound(begin, end, c);
  return it != end && *it == c ? edge_child_[it - edge_bytes_.begin()] : -1;
}

void AhoCorasick::Build() {
  assert(!built_);
  // Trie edges to CSR, grouped by parent and sorted by byte.
  std::vector<std::pair<uint64_t, int32_t>> edges(trie_.begin(), trie_.end());
  decltype(trie_)().swap(trie_);
  std::sort(edges.begin(), edges.end());
  edge_offsets_.assign(nodes_.size() + 1, 0);
  edge_bytes_.reserve(edges.size());
  edge_child_.reserve(edges.size());
  for (const auto& [key, child] : edges) {
    ++edge_offsets_[(key >> 8) + 1];
    edge_bytes_.push_back(static_cast<uint8_t>(key & 0xFF));
    edge_child_.push_back(child);
  }
  for (size_t n = 0; n < nodes_.size(); ++n) {
    edge_offsets_[n + 1] += edge_offsets_[n];
  }

  // Failure and dictionary links in BFS order, so every node on a
  // node's fail chain is done before it.
  std::vector<int32_t> queue = {0};
  for (size_t head = 0; head < queue.size(); ++head) {
    const int32_t node = queue[head];
    for (uint32_t e = edge_offsets_[node]; e < edge_offsets_[node + 1]; ++e) {
      const int32_t child = edge_child_[e];
      int32_t fail = 0;
      if (node != 0) {
        int32_t f = nodes_[node].fail;
        while (f != 0 && Child(f, edge_bytes_[e]) < 0) f = nodes_[f].fail;
        fail = std::max(Child(f, edge_bytes_[e]), 0);
      }
      nodes_[child].fail = fail;
      nodes_[child].dict =
          nodes_[fail].output >= 0 ? fail : nodes_[fail].dict;
      queue.push_back(child);
    }
  }
  built_ = true;
}

std::vector<AhoCorasick::Match> AhoCorasick::FindAll(
    std::string_view text) const {
  assert(built_);
  std::vector<Match> matches;
  int32_t node = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const uint8_t c = static_cast<uint8_t>(text[i]);
    int32_t next;
    while ((next = Child(node, c)) < 0 && node != 0) node = nodes_[node].fail;
    node = std::max(next, 0);
    for (int32_t n = nodes_[node].output >= 0 ? node : nodes_[node].dict;
         n >= 0; n = nodes_[n].dict) {
      for (int32_t pat = nodes_[n].output; pat >= 0; pat = next_output_[pat]) {
        Match m;
        m.end = i + 1;
        m.begin = m.end - patterns_[pat].size();
        m.pattern = static_cast<uint32_t>(pat);
        matches.push_back(m);
      }
    }
  }
  return matches;
}

}  // namespace saga::text
