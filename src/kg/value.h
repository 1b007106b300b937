#ifndef SAGA_KG_VALUE_H_
#define SAGA_KG_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/serialization.h"
#include "common/status.h"
#include "kg/ids.h"

namespace saga::kg {

/// Calendar date stored as yyyymmdd (e.g. 19790723). Good enough for
/// fact values; no timezone semantics.
struct Date {
  int32_t ymd = 0;

  static Date FromYmd(int year, int month, int day) {
    return Date{year * 10000 + month * 100 + day};
  }
  int year() const { return ymd / 10000; }
  int month() const { return (ymd / 100) % 100; }
  int day() const { return ymd % 100; }

  /// "YYYY-MM-DD".
  std::string ToString() const;
  /// Parses "YYYY-MM-DD"; returns false on malformed input.
  static bool Parse(std::string_view s, Date* out);

  friend bool operator==(Date a, Date b) { return a.ymd == b.ymd; }
  friend bool operator<(Date a, Date b) { return a.ymd < b.ymd; }
};

/// Object position of a triple: either a link to another entity or a
/// typed literal. A 16-byte tagged union with value semantics: the kind
/// and one 8-byte slot, which holds the scalar payload or owns the
/// string of a kString (a copy copies the string).
class Value {
 public:
  enum class Kind : uint8_t {
    kEntity = 0,
    kString = 1,
    kInt = 2,
    kDouble = 3,
    kDate = 4,
    kBool = 5,
  };

  Value() : kind_(Kind::kString) {}
  Value(const Value& other);
  Value(Value&& other) noexcept;
  Value& operator=(const Value& other);
  Value& operator=(Value&& other) noexcept;
  ~Value();

  static Value Entity(EntityId id);
  static Value String(std::string s);
  static Value Int(int64_t v);
  static Value Double(double v);
  static Value OfDate(Date d);
  static Value Bool(bool b);

  Kind kind() const { return kind_; }
  bool is_entity() const { return kind_ == Kind::kEntity; }
  bool is_literal() const { return kind_ != Kind::kEntity; }
  bool is_numeric() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }

  /// Accessors assume the matching kind; checked by assert in debug.
  EntityId entity() const;
  const std::string& string_value() const;
  int64_t int_value() const;
  double double_value() const;
  Date date_value() const;
  bool bool_value() const;

  /// Canonical display string; entity values render as "E<id>".
  std::string ToString() const;

  /// Stable 64-bit hash over kind + payload; used for grouping candidate
  /// extraction values.
  uint64_t Hash() const;

  void Serialize(BinaryWriter* w) const;
  static Status Deserialize(BinaryReader* r, Value* out);

  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

 private:
  /// The string a kString owns; null for the empty string.
  std::string* owned_string() const;
  /// Frees the owned string, if any, leaving the slot 0.
  void Release();

  Kind kind_;
  /// The payload, read only as the kind's type: an entity id, an int64
  /// (kInt, kDate, kBool), the bits of a double, or a kString's owned
  /// `std::string*`. One slot keeps every triple's object at 16 bytes.
  uint64_t bits_ = 0;
};

}  // namespace saga::kg

#endif  // SAGA_KG_VALUE_H_
