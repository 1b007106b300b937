#ifndef SAGA_COMMON_HEALTH_SECTION_H_
#define SAGA_COMMON_HEALTH_SECTION_H_

#include <cstdint>
#include <string>
#include <vector>

namespace saga::obs {

/// One titled block of key/value rows in `saga_cli stats --health`,
/// rendered identically for every subsystem (serving, integrity,
/// replication, storage, resources): rows are stable-sorted by key so
/// text and JSON come out in the same deterministic order regardless
/// of which subsystem built the section or in what order it added
/// rows. Values are typed at Row() time so the JSON stays typed
/// (numbers/bools unquoted) while the text view gets aligned columns.
class HealthSection {
 public:
  explicit HealthSection(std::string title);

  HealthSection& Row(std::string key, const std::string& value);
  HealthSection& Row(std::string key, const char* value);
  HealthSection& Row(std::string key, int64_t value);
  HealthSection& Row(std::string key, uint64_t value);
  HealthSection& Row(std::string key, double value, int precision = 3);
  HealthSection& Row(std::string key, bool value);
  /// Renders 0 as "never" in text (and 0 in JSON).
  HealthSection& RowUnixMs(std::string key, int64_t unix_ms);
  /// Free-text line appended after the rows (text view only).
  HealthSection& Note(std::string note);

  /// "== title ==" header + aligned "  key: value" rows + notes.
  std::string Text() const;
  /// `"title":{"key":value,...}` — an object *member* the caller
  /// joins with commas inside a surrounding JSON object.
  std::string Json() const;

 private:
  struct RowEntry {
    std::string key;
    std::string text_value;
    std::string json_value;
  };

  HealthSection& Add(std::string key, std::string text_value,
                     std::string json_value);
  /// Rows stable-sorted by key — the shared deterministic order.
  std::vector<RowEntry> SortedRows() const;

  std::string title_;
  std::vector<RowEntry> rows_;
  std::vector<std::string> notes_;
};

/// Renders sections as one text report / one JSON object.
std::string RenderHealthText(const std::vector<HealthSection>& sections);
std::string RenderHealthJson(const std::vector<HealthSection>& sections);

}  // namespace saga::obs

#endif  // SAGA_COMMON_HEALTH_SECTION_H_
