#include "annotation/mention_detector.h"

#include <algorithm>

#include "text/tokenizer.h"

namespace saga::annotation {

MentionDetector::MentionDetector(const kg::EntityCatalog* catalog) {
  for (const std::string& alias : catalog->AllAliases()) {
    if (alias.size() >= kMinSurfaceLength) {
      automaton_.AddPattern(alias);
    }
  }
  automaton_.Build();
}

std::vector<Mention> MentionDetector::Detect(std::string_view text) const {
  // Aliases are stored lowercased; scan a lowercased copy (the
  // byte-level ASCII fold preserves offsets).
  std::string lowered(text);
  for (char& c : lowered) c = text::AsciiLower(c);
  std::vector<text::AhoCorasick::Match> matches =
      automaton_.FindAll(lowered);

  matches.erase(
      std::remove_if(matches.begin(), matches.end(),
                     [&](const text::AhoCorasick::Match& m) {
                       const bool left_ok =
                           m.begin == 0 ||
                           !text::IsAsciiAlnum(lowered[m.begin - 1]);
                       const bool right_ok =
                           m.end >= lowered.size() ||
                           !text::IsAsciiAlnum(lowered[m.end]);
                       return !(left_ok && right_ok);
                     }),
      matches.end());

  // Longest-first greedy selection, leftmost on ties, no overlaps.
  std::sort(matches.begin(), matches.end(),
            [](const auto& a, const auto& b) {
              const size_t la = a.end - a.begin;
              const size_t lb = b.end - b.begin;
              if (la != lb) return la > lb;
              return a.begin < b.begin;
            });
  std::vector<std::pair<size_t, size_t>> taken;
  std::vector<Mention> mentions;
  for (const auto& m : matches) {
    bool overlaps = false;
    for (const auto& [b, e] : taken) {
      if (m.begin < e && b < m.end) {
        overlaps = true;
        break;
      }
    }
    if (overlaps) continue;
    taken.emplace_back(m.begin, m.end);
    Mention mention;
    mention.begin = m.begin;
    mention.end = m.end;
    mention.surface = std::string(text.substr(m.begin, m.end - m.begin));
    mentions.push_back(std::move(mention));
  }
  std::sort(mentions.begin(), mentions.end(),
            [](const Mention& a, const Mention& b) {
              return a.begin < b.begin;
            });
  return mentions;
}

}  // namespace saga::annotation
