#include "kg/value.h"

#include <bit>
#include <cassert>
#include <cstdio>

#include "common/hash.h"

namespace saga::kg {

std::string Date::ToString() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year(), month(), day());
  return buf;
}

bool Date::Parse(std::string_view s, Date* out) {
  if (s.size() != 10 || s[4] != '-' || s[7] != '-') return false;
  int y = 0;
  int m = 0;
  int d = 0;
  for (int i = 0; i < 4; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    y = y * 10 + (s[i] - '0');
  }
  for (int i = 5; i < 7; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    m = m * 10 + (s[i] - '0');
  }
  for (int i = 8; i < 10; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    d = d * 10 + (s[i] - '0');
  }
  if (m < 1 || m > 12 || d < 1 || d > 31) return false;
  *out = Date::FromYmd(y, m, d);
  return true;
}

Value::Value(const Value& other) : kind_(other.kind_), bits_(other.bits_) {
  if (const std::string* s = other.owned_string()) {
    bits_ = std::bit_cast<uint64_t>(new std::string(*s));
  }
}

Value::Value(Value&& other) noexcept : kind_(other.kind_), bits_(other.bits_) {
  other.kind_ = Kind::kString;
  other.bits_ = 0;
}

Value& Value::operator=(const Value& other) {
  if (this != &other) *this = Value(other);
  return *this;
}

Value& Value::operator=(Value&& other) noexcept {
  if (this != &other) {
    Release();
    kind_ = other.kind_;
    bits_ = other.bits_;
    other.kind_ = Kind::kString;
    other.bits_ = 0;
  }
  return *this;
}

Value::~Value() { Release(); }

std::string* Value::owned_string() const {
  return kind_ == Kind::kString ? std::bit_cast<std::string*>(bits_)
                                : nullptr;
}

void Value::Release() {
  delete owned_string();
  bits_ = 0;
}

Value Value::Entity(EntityId id) {
  Value v;
  v.kind_ = Kind::kEntity;
  v.bits_ = id.value();
  return v;
}

Value Value::String(std::string s) {
  Value v;
  if (!s.empty()) {
    v.bits_ = std::bit_cast<uint64_t>(new std::string(std::move(s)));
  }
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.kind_ = Kind::kInt;
  v.bits_ = static_cast<uint64_t>(i);
  return v;
}

Value Value::Double(double d) {
  Value v;
  v.kind_ = Kind::kDouble;
  v.bits_ = std::bit_cast<uint64_t>(d);
  return v;
}

Value Value::OfDate(Date d) {
  Value v;
  v.kind_ = Kind::kDate;
  v.bits_ = static_cast<uint64_t>(int64_t{d.ymd});
  return v;
}

Value Value::Bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bits_ = b ? 1 : 0;
  return v;
}

EntityId Value::entity() const {
  assert(kind_ == Kind::kEntity);
  return EntityId(bits_);
}

const std::string& Value::string_value() const {
  assert(kind_ == Kind::kString);
  static const std::string kEmpty;
  const std::string* s = owned_string();
  return s != nullptr ? *s : kEmpty;
}

int64_t Value::int_value() const {
  assert(kind_ == Kind::kInt);
  return static_cast<int64_t>(bits_);
}

double Value::double_value() const {
  assert(kind_ == Kind::kDouble);
  return std::bit_cast<double>(bits_);
}

Date Value::date_value() const {
  assert(kind_ == Kind::kDate);
  return Date{static_cast<int32_t>(bits_)};
}

bool Value::bool_value() const {
  assert(kind_ == Kind::kBool);
  return bits_ != 0;
}

std::string Value::ToString() const {
  switch (kind_) {
    case Kind::kEntity:
      return "E" + std::to_string(bits_);
    case Kind::kString:
      return string_value();
    case Kind::kInt:
      return std::to_string(static_cast<int64_t>(bits_));
    case Kind::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", std::bit_cast<double>(bits_));
      return buf;
    }
    case Kind::kDate:
      return Date{static_cast<int32_t>(bits_)}.ToString();
    case Kind::kBool:
      return bits_ != 0 ? "true" : "false";
  }
  return "?";
}

uint64_t Value::Hash() const {
  const uint64_t h = static_cast<uint64_t>(kind_);
  // Every kind but kString hashes its slot: the entity id, the int64 or
  // the double's bits.
  if (kind_ == Kind::kString) return HashCombine(h, Hash64(string_value()));
  return HashCombine(h, bits_);
}

void Value::Serialize(BinaryWriter* w) const {
  w->PutU8(static_cast<uint8_t>(kind_));
  switch (kind_) {
    case Kind::kEntity:
      w->PutVarint64(bits_);
      break;
    case Kind::kString:
      w->PutString(string_value());
      break;
    case Kind::kInt:
    case Kind::kDate:
    case Kind::kBool:
      w->PutVarint64Signed(static_cast<int64_t>(bits_));
      break;
    case Kind::kDouble:
      w->PutDouble(std::bit_cast<double>(bits_));
      break;
  }
}

Status Value::Deserialize(BinaryReader* r, Value* out) {
  uint8_t kind_byte = 0;
  SAGA_RETURN_IF_ERROR(r->GetU8(&kind_byte));
  if (kind_byte > static_cast<uint8_t>(Kind::kBool)) {
    return Status::Corruption("bad value kind " + std::to_string(kind_byte));
  }
  const Kind kind = static_cast<Kind>(kind_byte);
  switch (kind) {
    case Kind::kEntity: {
      uint64_t id = 0;
      SAGA_RETURN_IF_ERROR(r->GetVarint64(&id));
      *out = Value::Entity(EntityId(id));
      break;
    }
    case Kind::kString: {
      std::string s;
      SAGA_RETURN_IF_ERROR(r->GetString(&s));
      *out = Value::String(std::move(s));
      break;
    }
    case Kind::kInt: {
      int64_t v = 0;
      SAGA_RETURN_IF_ERROR(r->GetVarint64Signed(&v));
      *out = Value::Int(v);
      break;
    }
    case Kind::kDate: {
      int64_t v = 0;
      SAGA_RETURN_IF_ERROR(r->GetVarint64Signed(&v));
      *out = Value::OfDate(Date{static_cast<int32_t>(v)});
      break;
    }
    case Kind::kBool: {
      int64_t v = 0;
      SAGA_RETURN_IF_ERROR(r->GetVarint64Signed(&v));
      *out = Value::Bool(v != 0);
      break;
    }
    case Kind::kDouble: {
      double v = 0;
      SAGA_RETURN_IF_ERROR(r->GetDouble(&v));
      *out = Value::Double(v);
      break;
    }
  }
  return Status::OK();
}

bool operator==(const Value& a, const Value& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Value::Kind::kString:
      return a.string_value() == b.string_value();
    case Value::Kind::kDouble:  // as doubles: 0.0 == -0.0, NaN != NaN
      return std::bit_cast<double>(a.bits_) == std::bit_cast<double>(b.bits_);
    default:
      return a.bits_ == b.bits_;
  }
}

}  // namespace saga::kg
