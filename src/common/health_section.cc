#include "common/health_section.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <utility>

#include "common/string_util.h"

namespace saga::obs {

namespace {

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += "\"";
  return out;
}

}  // namespace

HealthSection::HealthSection(std::string title) : title_(std::move(title)) {}

HealthSection& HealthSection::Add(std::string key, std::string text_value,
                                  std::string json_value) {
  rows_.push_back(
      {std::move(key), std::move(text_value), std::move(json_value)});
  return *this;
}

HealthSection& HealthSection::Row(std::string key, const std::string& value) {
  return Add(std::move(key), value, JsonQuote(value));
}

HealthSection& HealthSection::Row(std::string key, const char* value) {
  return Row(std::move(key), std::string(value));
}

HealthSection& HealthSection::Row(std::string key, int64_t value) {
  const std::string s = std::to_string(value);
  return Add(std::move(key), s, s);
}

HealthSection& HealthSection::Row(std::string key, uint64_t value) {
  const std::string s = std::to_string(value);
  return Add(std::move(key), s, s);
}

HealthSection& HealthSection::Row(std::string key, double value,
                                  int precision) {
  const std::string s = FormatDouble(value, precision);
  return Add(std::move(key), s, s);
}

HealthSection& HealthSection::Row(std::string key, bool value) {
  return Add(std::move(key), value ? "yes" : "no",
             value ? "true" : "false");
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
  return Add(std::move(key), std::move(text), std::to_string(unix_ms));
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
                  (row.key + ":").c_str(), row.text_value.c_str());
    out += buf;
  }
  for (const std::string& note : notes_) {
    out += "  " + note + "\n";
  }
  return out;
}

std::string HealthSection::Json() const {
  std::string out = JsonQuote(title_) + ":{";
  bool first = true;
  for (const RowEntry& row : SortedRows()) {
    if (!first) out += ",";
    first = false;
    out += JsonQuote(row.key) + ":" + row.json_value;
  }
  out += "}";
  return out;
}

std::string RenderHealthText(const std::vector<HealthSection>& sections) {
  std::string out;
  for (const HealthSection& section : sections) {
    if (!out.empty()) out += "\n";
    out += section.Text();
  }
  return out;
}

std::string RenderHealthJson(const std::vector<HealthSection>& sections) {
  std::string out = "{";
  bool first = true;
  for (const HealthSection& section : sections) {
    if (!first) out += ",";
    first = false;
    out += section.Json();
  }
  out += "}";
  return out;
}

}  // namespace saga::obs
