#ifndef SAGA_ONDEVICE_SOURCE_RECORD_H_
#define SAGA_ONDEVICE_SOURCE_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/serialization.h"
#include "common/status.h"

namespace saga::ondevice {

/// On-device data sources providing overlapping Person information
/// (§5, Fig 7: contact lists, message senders, calendar invitees).
enum class SourceKind : uint8_t {
  kContacts = 0,
  kMessages = 1,
  kCalendar = 2,
};

constexpr int kNumSourceKinds = 3;

std::string_view SourceKindName(SourceKind kind);

/// One raw record from one source, in that source's native format and
/// namespace. Different sources describe the same person differently.
struct SourceRecord {
  SourceKind source = SourceKind::kContacts;
  /// Unique within (source): e.g. "contacts:17".
  std::string native_id;
  std::string name;   // display name as the source renders it
  std::string phone;  // possibly formatted, possibly empty
  std::string email;  // possibly empty
  /// Associated free text (message bodies, event titles) — the context
  /// signal for on-device semantic annotation ("the Tim who talks
  /// about SIGMOD").
  std::vector<std::string> interactions;
  int64_t timestamp = 0;

  /// The record as sync ships it (sync counts the bytes).
  void Serialize(BinaryWriter* w) const;
};

/// Canonical digits-only phone form ("(555) 010-0199" -> "5550100199").
std::string NormalizePhone(std::string_view phone);

}  // namespace saga::ondevice

#endif  // SAGA_ONDEVICE_SOURCE_RECORD_H_
