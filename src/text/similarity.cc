#include "text/similarity.h"

#include <algorithm>
#include <vector>

namespace saga::text {

double JaroWinkler(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;

  const size_t match_window =
      std::max<size_t>(1, std::max(a.size(), b.size()) / 2) - 1;
  std::vector<bool> a_matched(a.size(), false);
  std::vector<bool> b_matched(b.size(), false);

  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const size_t lo = i > match_window ? i - match_window : 0;
    const size_t hi = std::min(b.size(), i + match_window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = true;
        b_matched[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;

  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double m = static_cast<double>(matches);
  const double jaro =
      (m / static_cast<double>(a.size()) + m / static_cast<double>(b.size()) +
       (m - static_cast<double>(transpositions) / 2.0) / m) /
      3.0;

  size_t prefix = 0;
  for (size_t i = 0; i < std::min({a.size(), b.size(), size_t{4}}); ++i) {
    if (a[i] == b[i]) ++prefix;
    else break;
  }
  return jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
}

}  // namespace saga::text
