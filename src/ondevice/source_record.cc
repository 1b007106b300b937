#include "ondevice/source_record.h"

#include <cctype>

namespace saga::ondevice {

std::string_view SourceKindName(SourceKind kind) {
  switch (kind) {
    case SourceKind::kContacts:
      return "contacts";
    case SourceKind::kMessages:
      return "messages";
    case SourceKind::kCalendar:
      return "calendar";
  }
  return "?";
}

std::string NormalizePhone(std::string_view phone) {
  std::string digits;
  for (char c : phone) {
    if (std::isdigit(static_cast<unsigned char>(c))) digits.push_back(c);
  }
  // Strip a leading country code "1" from 11-digit numbers so "+1 555
  // 010 0199" and "(555) 010-0199" normalize identically.
  if (digits.size() == 11 && digits[0] == '1') digits.erase(0, 1);
  return digits;
}

void SourceRecord::Serialize(BinaryWriter* w) const {
  w->PutU8(static_cast<uint8_t>(source));
  w->PutString(native_id);
  w->PutString(name);
  w->PutString(phone);
  w->PutString(email);
  w->PutVarint64(interactions.size());
  for (const auto& s : interactions) w->PutString(s);
  w->PutVarint64Signed(timestamp);
}

}  // namespace saga::ondevice
