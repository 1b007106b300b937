#include "common/checksum.h"

#include <array>

#include "common/metrics.h"
#include "common/serialization.h"

namespace saga {

namespace {

constexpr std::string_view kCrcPrefix = "crc:";
/// Fixed32 magic plus fixed32 CRC.
constexpr size_t kBinaryFrameBytes = 8;

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  uint32_t c = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    c = kTable[(c ^ byte) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::optional<uint64_t> ParseDecimal(std::string_view digits) {
  if (digits.empty()) return std::nullopt;
  uint64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<uint64_t>(c - '0');  // wraps on overflow
  }
  // Round-tripping rejects leading zeros and wrapped values alike.
  if (std::to_string(v) != digits) return std::nullopt;
  return v;
}

std::string EncodeTextFrame(std::string_view header,
                            const std::vector<std::string>& entries) {
  std::string out(header);
  out.push_back('\n');
  for (const std::string& e : entries) {
    out += e;
    out.push_back('\n');
  }
  out += std::string(kCrcPrefix) + std::to_string(Crc32(out)) + "\n";
  return out;
}

Result<std::vector<std::string>> DecodeTextFrame(std::string_view data,
                                                 std::string_view header) {
  auto corrupt = [header](const char* what) {
    return Status::Corruption(std::string(header) + " frame: " + what);
  };
  if (data.size() < 2 || data.back() != '\n') return corrupt("torn");
  // The trailer is the last line; the body before it is what it covers.
  const size_t trailer = data.rfind('\n', data.size() - 2) + 1;  // npos + 1 = 0
  const std::string_view body = data.substr(0, trailer);
  const std::string_view crc = data.substr(trailer, data.size() - 1 - trailer);
  if (!crc.starts_with(kCrcPrefix)) return corrupt("no crc trailer");
  // A value past 32 bits can never equal the CRC.
  const std::optional<uint64_t> stored =
      ParseDecimal(crc.substr(kCrcPrefix.size()));
  if (!stored.has_value() || *stored != Crc32(body)) {
    return corrupt("crc mismatch");
  }
  if (!body.starts_with(header) || body.substr(header.size(), 1) != "\n") {
    return corrupt("bad header");
  }
  std::vector<std::string> entries;
  // The body ends in '\n', so every find below succeeds.
  for (size_t start = header.size() + 1; start < body.size();) {
    const size_t end = body.find('\n', start);
    if (end == start) return corrupt("empty entry");
    entries.emplace_back(body.substr(start, end - start));
    start = end + 1;
  }
  return entries;
}

std::string EncodeBinaryFrame(uint32_t magic, std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + kBinaryFrameBytes);
  BinaryWriter w(&out);
  w.PutFixed32(magic);
  out.append(payload);
  w.PutFixed32(Crc32(payload));
  return out;
}

Result<std::string_view> DecodeBinaryFrame(std::string_view image,
                                           uint32_t magic,
                                           const std::string& name) {
  if (image.size() < kBinaryFrameBytes) {
    return Status::Corruption("file too small for its frame: " + name);
  }
  uint32_t found = 0;
  uint32_t stored = 0;
  SAGA_RETURN_IF_ERROR(BinaryReader(image).GetFixed32(&found));
  if (found != magic) return Status::Corruption("bad file magic: " + name);
  SAGA_RETURN_IF_ERROR(
      BinaryReader(image.substr(image.size() - 4)).GetFixed32(&stored));
  const std::string_view payload =
      image.substr(4, image.size() - kBinaryFrameBytes);
  if (Crc32(payload) != stored) {
    SAGA_COUNTER("integrity.corruption.detected").Add();
    return Status::DataLoss("file crc mismatch: " + name);
  }
  return payload;
}

}  // namespace saga
