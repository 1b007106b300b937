#ifndef SAGA_COMMON_STRING_UTIL_H_
#define SAGA_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace saga {

std::string ToLower(std::string_view s);

/// Formats a double with the given number of decimals (locale-free).
std::string FormatDouble(double v, int decimals);

/// Human-readable byte count, e.g. "1.5 MiB".
std::string FormatBytes(uint64_t bytes);

}  // namespace saga

#endif  // SAGA_COMMON_STRING_UTIL_H_
