#include "text/tokenizer.h"

namespace saga::text {

std::vector<Token> Tokenize(std::string_view text) {
  std::vector<Token> tokens;
  ForEachToken(text, [&](std::string_view lowered, size_t begin, size_t end,
                         bool capitalized) {
    tokens.push_back(Token{std::string(lowered), begin, end, capitalized});
  });
  return tokens;
}

std::string NormalizedTokenString(std::string_view text) {
  std::string out;
  for (const Token& tok : Tokenize(text)) {
    if (!out.empty()) out.push_back(' ');
    out += tok.text;
  }
  return out;
}

}  // namespace saga::text
