#ifndef SAGA_ANNOTATION_MENTION_DETECTOR_H_
#define SAGA_ANNOTATION_MENTION_DETECTOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "annotation/types.h"
#include "kg/entity_catalog.h"
#include "text/aho_corasick.h"

namespace saga::annotation {

/// Gazetteer-based mention detection: compiles every catalog alias into
/// one Aho-Corasick automaton and scans documents in a single pass.
/// A match must have non-alphanumeric characters (or the text's ends)
/// on both sides. Overlapping matches resolve longest-first (then
/// leftmost).
class MentionDetector {
 public:
  /// Aliases shorter than this many bytes (single letters and other
  /// noise) are never detected.
  static constexpr size_t kMinSurfaceLength = 3;

  explicit MentionDetector(const kg::EntityCatalog* catalog);

  /// Non-overlapping mentions in reading order.
  std::vector<Mention> Detect(std::string_view text) const;

 private:
  text::AhoCorasick automaton_;
};

}  // namespace saga::annotation

#endif  // SAGA_ANNOTATION_MENTION_DETECTOR_H_
