#ifndef SAGA_TEXT_SIMILARITY_H_
#define SAGA_TEXT_SIMILARITY_H_

#include <string_view>

namespace saga::text {

/// Jaro-Winkler similarity in [0, 1]; standard prefix boost (p=0.1,
/// max prefix 4). The on-device entity matcher uses this for names.
double JaroWinkler(std::string_view a, std::string_view b);

}  // namespace saga::text

#endif  // SAGA_TEXT_SIMILARITY_H_
