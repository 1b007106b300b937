#ifndef SAGA_TEXT_AHO_CORASICK_H_
#define SAGA_TEXT_AHO_CORASICK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace saga::text {

/// Multi-pattern string matcher (Aho-Corasick over bytes). The mention
/// detector compiles the KG alias gazetteer (hundreds of thousands of
/// surface forms) into one automaton and scans each document once.
/// Once built, the automaton is flat arrays: 12 bytes per trie node plus
/// 5 bytes per edge and 4 per node of CSR offsets.
class AhoCorasick {
 public:
  struct Match {
    size_t begin = 0;       // byte offset in the haystack
    size_t end = 0;         // one past the last byte
    uint32_t pattern = 0;   // index of the matched pattern
  };

  AhoCorasick() = default;

  /// Adds a pattern before Build(); returns its index. Patterns should
  /// be normalized (lowercased) by the caller; matching is exact bytes.
  uint32_t AddPattern(std::string_view pattern);

  /// Finalizes failure links. Must be called once, after all patterns.
  void Build();

  /// All (possibly overlapping) pattern occurrences in `text`.
  std::vector<Match> FindAll(std::string_view text) const;

 private:
  struct Node {
    int32_t fail = 0;
    int32_t output = -1;  // first pattern ending here; more via next_output_
    int32_t dict = -1;    // nearest node on the fail chain with an output
  };

  /// Child of `node` on byte `c`, or -1. Valid after Build().
  int32_t Child(int32_t node, uint8_t c) const;

  std::vector<Node> nodes_{1};
  /// AddPattern's trie edges, (parent << 8 | byte) -> child. Build()
  /// moves them into the CSR arrays below and frees the map.
  std::unordered_map<uint64_t, int32_t> trie_;
  /// Node n's edges are [edge_offsets_[n], edge_offsets_[n + 1]), sorted
  /// by byte.
  std::vector<uint32_t> edge_offsets_;
  std::vector<uint8_t> edge_bytes_;
  std::vector<int32_t> edge_child_;
  /// Byte length of each pattern, by index.
  std::vector<size_t> pattern_lengths_;
  std::vector<int32_t> next_output_;  // per pattern; -1 ends the list
  bool built_ = false;
};

}  // namespace saga::text

#endif  // SAGA_TEXT_AHO_CORASICK_H_
