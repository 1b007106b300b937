#include "common/serialization.h"

namespace saga {

void BinaryWriter::PutFixed32(uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xFF);
  buf[1] = static_cast<char>((v >> 8) & 0xFF);
  buf[2] = static_cast<char>((v >> 16) & 0xFF);
  buf[3] = static_cast<char>((v >> 24) & 0xFF);
  out_->append(buf, 4);
}

void BinaryWriter::PutFixed64(uint64_t v) {
  PutFixed32(static_cast<uint32_t>(v & 0xFFFFFFFFULL));
  PutFixed32(static_cast<uint32_t>(v >> 32));
}

void BinaryWriter::PutVarint64(uint64_t v) {
  while (v >= 0x80) {
    out_->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out_->push_back(static_cast<char>(v));
}

void BinaryWriter::PutVarint64Signed(int64_t v) {
  // ZigZag keeps small magnitudes small regardless of sign.
  uint64_t encoded =
      (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
  PutVarint64(encoded);
}

void BinaryWriter::PutFloat(float v) {
  uint32_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed32(bits);
}

void BinaryWriter::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(bits);
}

void BinaryWriter::PutString(std::string_view s) {
  PutVarint64(s.size());
  out_->append(s.data(), s.size());
}

void BinaryWriter::PutFloatVector(const std::vector<float>& v) {
  PutVarint64(v.size());
  for (float f : v) PutFloat(f);
}

Status BinaryReader::Need(size_t n) {
  if (n > data_.size() - pos_) {
    return Status::Corruption("truncated input: need " + std::to_string(n) +
                              " bytes at offset " + std::to_string(pos_));
  }
  return Status::OK();
}

Status BinaryReader::Skip(size_t n) {
  SAGA_RETURN_IF_ERROR(Need(n));
  pos_ += n;
  return Status::OK();
}

Status BinaryReader::GetU8(uint8_t* v) {
  SAGA_RETURN_IF_ERROR(Need(1));
  *v = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status BinaryReader::GetFixed32(uint32_t* v) {
  SAGA_RETURN_IF_ERROR(Need(4));
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(data_.data() + pos_);
  *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
       (static_cast<uint32_t>(p[2]) << 16) |
       (static_cast<uint32_t>(p[3]) << 24);
  pos_ += 4;
  return Status::OK();
}

Status BinaryReader::GetFixed64(uint64_t* v) {
  uint32_t lo = 0;
  uint32_t hi = 0;
  SAGA_RETURN_IF_ERROR(GetFixed32(&lo));
  SAGA_RETURN_IF_ERROR(GetFixed32(&hi));
  *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return Status::OK();
}

Status BinaryReader::GetVarint64(uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    SAGA_RETURN_IF_ERROR(Need(1));
    uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return Status::OK();
    }
  }
  return Status::Corruption("varint64 too long");
}

Status BinaryReader::GetVarint64Signed(int64_t* v) {
  uint64_t encoded = 0;
  SAGA_RETURN_IF_ERROR(GetVarint64(&encoded));
  *v = static_cast<int64_t>((encoded >> 1) ^ (~(encoded & 1) + 1));
  return Status::OK();
}

Status BinaryReader::GetFloat(float* v) {
  uint32_t bits = 0;
  SAGA_RETURN_IF_ERROR(GetFixed32(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status BinaryReader::GetDouble(double* v) {
  uint64_t bits = 0;
  SAGA_RETURN_IF_ERROR(GetFixed64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status BinaryReader::GetString(std::string* s) {
  uint64_t len = 0;
  SAGA_RETURN_IF_ERROR(GetVarint64(&len));
  SAGA_RETURN_IF_ERROR(Need(len));
  s->assign(data_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Status BinaryReader::GetBool(bool* v) {
  uint8_t b = 0;
  SAGA_RETURN_IF_ERROR(GetU8(&b));
  *v = (b != 0);
  return Status::OK();
}

Status BinaryReader::GetFloatVector(std::vector<float>* v) {
  uint64_t n = 0;
  SAGA_RETURN_IF_ERROR(GetVarint64(&n));
  if (n > remaining() / sizeof(float)) {
    return Status::Corruption("float vector overruns the input");
  }
  v->resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    SAGA_RETURN_IF_ERROR(GetFloat(&(*v)[i]));
  }
  return Status::OK();
}

}  // namespace saga
