// Hand-written lexer for MicroJS. Supports // and /* */ comments, decimal
// and exponent number literals, and single- or double-quoted strings with
// the common escape sequences. The parser pulls tokens one at a time, so a
// large snapshot never exists as a token vector.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "src/jsvm/token.h"

namespace offload::jsvm {

/// Thrown on malformed source; carries a 1-based line number.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, std::size_t line)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line) {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

class Lexer {
 public:
  explicit Lexer(std::string_view source) : src_(source) {}

  /// The next token; kEof at the end, and again on every later call.
  Token next();

  /// 1-based line of a byte offset (for diagnostics).
  static std::size_t line_of(std::string_view source, std::size_t offset);

 private:
  Token lex_token();
  void skip_trivia();
  Token lex_number();
  Token lex_string(char quote);
  Token lex_identifier();
  bool lex_number_list(Token& t);
  [[noreturn]] void fail(const std::string& message) const;

  char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  bool eof() const { return pos_ >= src_.size(); }

  std::string_view src_;
  std::size_t pos_ = 0;
  /// True when the last token can end an operand, so a `[` after it is an
  /// index, never the start of a number list.
  bool after_operand_ = false;
};

}  // namespace offload::jsvm
