#ifndef SAGA_TEXT_TOKENIZER_H_
#define SAGA_TEXT_TOKENIZER_H_

#include <array>
#include <string>
#include <string_view>
#include <vector>

namespace saga::text {

/// ASCII-only character classes. The program never calls `setlocale`,
/// so these agree with `std::isalnum`/`std::tolower` in the "C" locale:
/// bytes 0x80-0xFF are neither letters nor digits and fold to
/// themselves.
constexpr bool IsAsciiUpper(char c) { return c >= 'A' && c <= 'Z'; }
constexpr bool IsAsciiAlnum(char c) {
  return (c >= 'a' && c <= 'z') || IsAsciiUpper(c) || (c >= '0' && c <= '9');
}
constexpr char AsciiLower(char c) {
  return IsAsciiUpper(c) ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Byte c lowercased when it is a word character (ASCII [A-Za-z0-9']),
/// 0 when it is not; no word character is 0. One load both classifies
/// and folds a byte.
inline constexpr std::array<unsigned char, 256> kLoweredWordByte = [] {
  std::array<unsigned char, 256> table{};
  for (int c = 0; c < 256; ++c) {
    const char ch = static_cast<char>(c);
    if (IsAsciiAlnum(ch) || ch == '\'') {
      table[c] = static_cast<unsigned char>(AsciiLower(ch));
    }
  }
  return table;
}();

inline bool IsWordChar(char c) {
  return kLoweredWordByte[static_cast<unsigned char>(c)] != 0;
}

/// The one tokenizer loop. Calls `fn(lowered, begin, end, capitalized)`
/// once per maximal run of word characters, in text order: `lowered` is
/// the ASCII-lowercased token, `[begin, end)` its byte span in `text`,
/// and `capitalized` whether it starts with an uppercase letter.
/// `lowered` views a buffer reused for the next token, so `fn` must copy
/// what it keeps. No heap allocation unless a token is longer than the
/// inline buffer.
template <typename Fn>
void ForEachToken(std::string_view text, Fn&& fn) {
  char inline_buf[64];
  std::string long_buf;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !IsWordChar(text[i])) ++i;
    if (i >= text.size()) break;
    const size_t begin = i;
    while (i < text.size() && IsWordChar(text[i])) ++i;
    const size_t len = i - begin;
    char* out = inline_buf;
    if (len > sizeof(inline_buf)) {
      long_buf.resize(len);
      out = long_buf.data();
    }
    for (size_t j = 0; j < len; ++j) {
      out[j] = static_cast<char>(
          kLoweredWordByte[static_cast<unsigned char>(text[begin + j])]);
    }
    fn(std::string_view(out, len), begin, i, IsAsciiUpper(text[begin]));
  }
}

/// One token with its byte span in the original text. Spans let the
/// mention detector map token matches back to character offsets.
struct Token {
  std::string text;        // lowercased
  size_t begin = 0;        // byte offset of first char
  size_t end = 0;          // byte offset one past last char
  bool capitalized = false;  // original form started with an uppercase letter
};

/// ASCII word tokenizer: ForEachToken collected into Tokens.
/// Multilingual tokenization is out of scope (the paper's service is
/// multilingual; see DESIGN.md substitutions).
std::vector<Token> Tokenize(std::string_view text);

/// Splits text into sentence strings on [.!?] followed by whitespace.
std::vector<std::string> SplitSentences(std::string_view text);

/// Lowercased whitespace-joined token string ("Michael  JORDAN!" ->
/// "michael jordan").
std::string NormalizedTokenString(std::string_view text);

}  // namespace saga::text

#endif  // SAGA_TEXT_TOKENIZER_H_
