#ifndef SAGA_COMMON_CHECKSUM_H_
#define SAGA_COMMON_CHECKSUM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace saga {

/// CRC32 (IEEE, reflected): the checksum of WAL records, SSTable blocks
/// and footers, and the two file frames below.
uint32_t Crc32(std::string_view data);

/// A file image's length and CRC32: what a snapshot manifest records
/// for each member to prove the copy intact.
struct Digest {
  uint64_t size = 0;
  uint32_t crc = 0;
  bool operator==(const Digest&) const = default;
};
inline Digest DigestOf(std::string_view b) { return {b.size(), Crc32(b)}; }

/// The canonical decimal spelling of an unsigned 64-bit integer: digits
/// only, no leading zero, no overflow. nullopt for anything else.
std::optional<uint64_t> ParseDecimal(std::string_view digits);

/// Text frame (MANIFEST, SNAPMANIFEST): `header\n`, one `entry\n` per
/// entry, then `crc:<decimal>\n` holding the CRC32 of every byte before
/// `crc:`. Entries must be non-empty and hold no newline.
std::string EncodeTextFrame(std::string_view header,
                            const std::vector<std::string>& entries);
/// The entries of a text frame with `header`; Corruption unless `data`
/// is exactly a frame EncodeTextFrame writes.
Result<std::vector<std::string>> DecodeTextFrame(std::string_view data,
                                                 std::string_view header);

/// Binary frame (EMB2 shards, `.kg` snapshots): fixed32 `magic`, the
/// payload, then the fixed32 CRC32 of the payload.
std::string EncodeBinaryFrame(uint32_t magic, std::string_view payload);
/// The payload of a binary frame. Corruption when `image` is shorter
/// than the frame or opens with another magic; kDataLoss, counted in
/// `integrity.corruption.detected`, when the CRC does not match. `name`
/// labels the errors.
Result<std::string_view> DecodeBinaryFrame(std::string_view image,
                                           uint32_t magic,
                                           const std::string& name);

}  // namespace saga

#endif  // SAGA_COMMON_CHECKSUM_H_
