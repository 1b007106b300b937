#ifndef SAGA_COMMON_HEALTH_SECTION_H_
#define SAGA_COMMON_HEALTH_SECTION_H_

#include <cstdint>
#include <string>
#include <vector>

namespace saga::obs {

/// One titled block of key/value rows, rendered identically for every
/// subsystem that prints one (the replication section of `saga_cli
/// replicate`, the disk-space governor's in `saga_cli resource` and
/// `bench_resource`): rows are stable-sorted by key so the text comes
/// out in the same deterministic order regardless of which subsystem
/// built the section or in what order it added rows.
class HealthSection {
 public:
  explicit HealthSection(std::string title);

  HealthSection& Row(std::string key, const std::string& value);
  HealthSection& Row(std::string key, const char* value);
  HealthSection& Row(std::string key, int64_t value);
  HealthSection& Row(std::string key, uint64_t value);
  HealthSection& Row(std::string key, double value, int precision = 3);
  HealthSection& Row(std::string key, bool value);
  /// Renders 0 as "never", anything else as local time.
  HealthSection& RowUnixMs(std::string key, int64_t unix_ms);
  /// Free-text line appended after the rows (text view only).
  HealthSection& Note(std::string note);

  /// "== title ==" header + aligned "  key: value" rows + notes.
  std::string Text() const;

 private:
  struct RowEntry {
    std::string key;
    std::string value;
  };

  HealthSection& Add(std::string key, std::string value);
  /// Rows stable-sorted by key — the shared deterministic order.
  std::vector<RowEntry> SortedRows() const;

  std::string title_;
  std::vector<RowEntry> rows_;
  std::vector<std::string> notes_;
};

}  // namespace saga::obs

#endif  // SAGA_COMMON_HEALTH_SECTION_H_
