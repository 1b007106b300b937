#include "common/health_section.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <utility>

#include "common/string_util.h"

namespace saga::obs {

HealthSection::HealthSection(std::string title) : title_(std::move(title)) {}

HealthSection& HealthSection::Add(std::string key, std::string value) {
  rows_.push_back({std::move(key), std::move(value)});
  return *this;
}

HealthSection& HealthSection::Row(std::string key, const std::string& value) {
  return Add(std::move(key), value);
}

HealthSection& HealthSection::Row(std::string key, const char* value) {
  return Add(std::move(key), value);
}

HealthSection& HealthSection::Row(std::string key, int64_t value) {
  return Add(std::move(key), std::to_string(value));
}

HealthSection& HealthSection::Row(std::string key, uint64_t value) {
  return Add(std::move(key), std::to_string(value));
}

HealthSection& HealthSection::Row(std::string key, double value,
                                  int precision) {
  return Add(std::move(key), FormatDouble(value, precision));
}

HealthSection& HealthSection::Row(std::string key, bool value) {
  return Add(std::move(key), value ? "yes" : "no");
}

HealthSection& HealthSection::RowUnixMs(std::string key, int64_t unix_ms) {
  std::string text = "never";
  if (unix_ms > 0) {
    const time_t secs = static_cast<time_t>(unix_ms / 1000);
    struct tm tm_buf;
    char buf[64];
    if (localtime_r(&secs, &tm_buf) != nullptr &&
        std::strftime(buf, sizeof(buf), "%Y-%m-%d %H:%M:%S", &tm_buf) > 0) {
      text = buf;
    } else {
      text = std::to_string(unix_ms) + "ms";
    }
  }
  return Add(std::move(key), std::move(text));
}

HealthSection& HealthSection::Note(std::string note) {
  notes_.push_back(std::move(note));
  return *this;
}

std::vector<HealthSection::RowEntry> HealthSection::SortedRows() const {
  std::vector<RowEntry> sorted = rows_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const RowEntry& a, const RowEntry& b) {
                     return a.key < b.key;
                   });
  return sorted;
}

std::string HealthSection::Text() const {
  std::string out = "== " + title_ + " ==\n";
  const std::vector<RowEntry> rows = SortedRows();
  size_t key_width = 0;
  for (const RowEntry& row : rows) {
    key_width = std::max(key_width, row.key.size());
  }
  char buf[320];
  for (const RowEntry& row : rows) {
    std::snprintf(buf, sizeof(buf), "  %-*s %s\n",
                  static_cast<int>(key_width + 1),
                  (row.key + ":").c_str(), row.value.c_str());
    out += buf;
  }
  for (const std::string& note : notes_) {
    out += "  " + note + "\n";
  }
  return out;
}

}  // namespace saga::obs
