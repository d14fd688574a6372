// Token definitions for MicroJS, the JavaScript subset our web-app runtime
// executes (see src/jsvm/README note in interpreter.h for the language
// surface). Tokens carry source offsets so functions can be snapshotted by
// slicing their original source text.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace offload::jsvm {

enum class TokenKind : std::uint8_t {
  kEof,
  kIdentifier,
  kNumber,
  kString,
  /// A whole `[n, -n, ...]` literal of plain numbers, lexed in one scan
  /// where an expression starts (see Lexer::lex_number_list).
  kNumberList,
  // Keywords.
  kVar,
  kFunction,
  kIf,
  kElse,
  kWhile,
  kFor,
  kReturn,
  kBreak,
  kContinue,
  kTrue,
  kFalse,
  kNull,
  kUndefined,
  kTypeof,
  kThis,
  // Punctuation / operators.
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kLBracket,
  kRBracket,
  kComma,
  kSemicolon,
  kColon,
  kQuestion,
  kDot,
  kAssign,
  kPlusAssign,
  kMinusAssign,
  kStarAssign,
  kSlashAssign,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kPercent,
  kPlusPlus,
  kMinusMinus,
  kEq,
  kNeq,
  kLt,
  kGt,
  kLe,
  kGe,
  kAndAnd,
  kOrOr,
  kNot,
};

struct Token {
  TokenKind kind = TokenKind::kEof;
  std::size_t begin = 0;  ///< byte offset of first char
  std::size_t end = 0;    ///< one past last char
  double number = 0.0;    ///< for kNumber
  std::string text;       ///< identifier name or decoded string literal
  std::vector<double> numbers;  ///< for kNumberList, in source order
};

const char* token_kind_name(TokenKind kind);

}  // namespace offload::jsvm
