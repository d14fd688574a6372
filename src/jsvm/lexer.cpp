#include "src/jsvm/lexer.h"

#include <cctype>
#include <charconv>
#include <unordered_map>
#include <vector>

namespace offload::jsvm {
namespace {

const std::unordered_map<std::string_view, TokenKind>& keywords() {
  static const std::unordered_map<std::string_view, TokenKind> map = {
      {"var", TokenKind::kVar},         {"function", TokenKind::kFunction},
      {"if", TokenKind::kIf},           {"else", TokenKind::kElse},
      {"while", TokenKind::kWhile},     {"for", TokenKind::kFor},
      {"return", TokenKind::kReturn},   {"break", TokenKind::kBreak},
      {"continue", TokenKind::kContinue}, {"true", TokenKind::kTrue},
      {"false", TokenKind::kFalse},     {"null", TokenKind::kNull},
      {"undefined", TokenKind::kUndefined}, {"typeof", TokenKind::kTypeof},
      {"this", TokenKind::kThis},
  };
  return map;
}

/// Tokens after which a `[` indexes (`x[0]`, `f()[1]`, `"s"[0]`) rather
/// than opening an array literal. `}` and `++`/`--` count too: the lexer
/// cannot tell a block from an object literal, and a list after them is
/// rare enough to leave to the generic path.
bool ends_operand(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdentifier: case TokenKind::kNumber:
    case TokenKind::kString: case TokenKind::kNumberList:
    case TokenKind::kTrue: case TokenKind::kFalse: case TokenKind::kNull:
    case TokenKind::kUndefined: case TokenKind::kThis:
    case TokenKind::kRParen: case TokenKind::kRBracket:
    case TokenKind::kRBrace: case TokenKind::kPlusPlus:
    case TokenKind::kMinusMinus:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* token_kind_name(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEof: return "end of input";
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kNumber: return "number";
    case TokenKind::kString: return "string";
    // A number list stands where the generic path has its '[', so errors
    // at it read the same on both paths.
    case TokenKind::kNumberList: return "'['";
    case TokenKind::kVar: return "'var'";
    case TokenKind::kFunction: return "'function'";
    case TokenKind::kIf: return "'if'";
    case TokenKind::kElse: return "'else'";
    case TokenKind::kWhile: return "'while'";
    case TokenKind::kFor: return "'for'";
    case TokenKind::kReturn: return "'return'";
    case TokenKind::kBreak: return "'break'";
    case TokenKind::kContinue: return "'continue'";
    case TokenKind::kTrue: return "'true'";
    case TokenKind::kFalse: return "'false'";
    case TokenKind::kNull: return "'null'";
    case TokenKind::kUndefined: return "'undefined'";
    case TokenKind::kTypeof: return "'typeof'";
    case TokenKind::kThis: return "'this'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kComma: return "','";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kColon: return "':'";
    case TokenKind::kQuestion: return "'?'";
    case TokenKind::kDot: return "'.'";
    case TokenKind::kAssign: return "'='";
    case TokenKind::kPlusAssign: return "'+='";
    case TokenKind::kMinusAssign: return "'-='";
    case TokenKind::kStarAssign: return "'*='";
    case TokenKind::kSlashAssign: return "'/='";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kPercent: return "'%'";
    case TokenKind::kPlusPlus: return "'++'";
    case TokenKind::kMinusMinus: return "'--'";
    case TokenKind::kEq: return "'=='";
    case TokenKind::kNeq: return "'!='";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kGe: return "'>='";
    case TokenKind::kAndAnd: return "'&&'";
    case TokenKind::kOrOr: return "'||'";
    case TokenKind::kNot: return "'!'";
  }
  return "?";
}

std::size_t Lexer::line_of(std::string_view source, std::size_t offset) {
  std::size_t line = 1;
  for (std::size_t i = 0; i < offset && i < source.size(); ++i) {
    if (source[i] == '\n') ++line;
  }
  return line;
}

void Lexer::fail(const std::string& message) const {
  throw ParseError(message, line_of(src_, pos_));
}

Token Lexer::next() {
  Token t = lex_token();
  after_operand_ = ends_operand(t.kind);
  return t;
}

void Lexer::skip_trivia() {
  while (!eof()) {
    char c = peek();
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos_;
    } else if (c == '/' && peek(1) == '/') {
      while (!eof() && peek() != '\n') ++pos_;
    } else if (c == '/' && peek(1) == '*') {
      pos_ += 2;
      while (!eof() && !(peek() == '*' && peek(1) == '/')) ++pos_;
      if (eof()) fail("unterminated block comment");
      pos_ += 2;
    } else {
      break;
    }
  }
}

Token Lexer::lex_number() {
  Token t;
  t.kind = TokenKind::kNumber;
  t.begin = pos_;
  while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
  if (peek() == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
    ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
  }
  if (peek() == 'e' || peek() == 'E') {
    std::size_t save = pos_;
    ++pos_;
    if (peek() == '+' || peek() == '-') ++pos_;
    if (std::isdigit(static_cast<unsigned char>(peek()))) {
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    } else {
      pos_ = save;  // 'e' belongs to a following identifier
    }
  }
  t.end = pos_;
  const char* first = src_.data() + t.begin;
  const char* last = src_.data() + t.end;
  auto [ptr, ec] = std::from_chars(first, last, t.number);
  if (ec != std::errc() || ptr != last) fail("malformed number literal");
  return t;
}

/// Scans `[` elements `]` where every element is an optional single `-`
/// followed by exactly lex_number's grammar, separated by `,` and
/// whitespace. Each value is what the generic path computes: from_chars of
/// the same digits, then the unary minus. On any other character (a
/// comment, a trailing comma, `NaN`, parentheses, a nested list) it leaves
/// pos_ alone and returns false, so the list lexes token by token and its
/// errors and semantics are the generic path's.
bool Lexer::lex_number_list(Token& t) {
  const char* const data = src_.data();
  const std::size_t size = src_.size();
  auto at = [&](std::size_t i) { return i < size ? data[i] : '\0'; };
  auto digit = [&](std::size_t i) {
    return std::isdigit(static_cast<unsigned char>(at(i))) != 0;
  };
  auto skip_space = [&](std::size_t& i) {
    while (std::isspace(static_cast<unsigned char>(at(i)))) ++i;
  };
  std::vector<double> values;
  std::size_t p = pos_ + 1;
  skip_space(p);
  if (at(p) != ']') {
    while (true) {
      const bool negative = at(p) == '-';
      if (negative) ++p;
      const std::size_t begin = p;
      if (!digit(p)) return false;
      while (digit(p)) ++p;
      if (at(p) == '.' && digit(p + 1)) {
        ++p;
        while (digit(p)) ++p;
      }
      if (at(p) == 'e' || at(p) == 'E') {
        std::size_t q = p + 1;
        if (at(q) == '+' || at(q) == '-') ++q;
        if (!digit(q)) return false;
        p = q;
        while (digit(p)) ++p;
      }
      double value = 0.0;
      auto [ptr, ec] = std::from_chars(data + begin, data + p, value);
      if (ec != std::errc() || ptr != data + p) return false;
      values.push_back(negative ? -value : value);
      skip_space(p);
      if (at(p) == ']') break;
      if (at(p) != ',') return false;
      ++p;
      skip_space(p);
    }
  }
  pos_ = p + 1;
  t.kind = TokenKind::kNumberList;
  t.end = pos_;
  t.numbers = std::move(values);
  return true;
}

Token Lexer::lex_string(char quote) {
  Token t;
  t.kind = TokenKind::kString;
  t.begin = pos_;
  ++pos_;  // opening quote
  std::string out;
  while (true) {
    if (eof()) fail("unterminated string literal");
    char c = src_[pos_];
    if (c == quote) {
      ++pos_;
      break;
    }
    if (c == '\n') fail("newline in string literal");
    if (c == '\\') {
      ++pos_;
      if (eof()) fail("unterminated escape");
      char e = src_[pos_++];
      switch (e) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case '0': out.push_back('\0'); break;
        case '\\': out.push_back('\\'); break;
        case '\'': out.push_back('\''); break;
        case '"': out.push_back('"'); break;
        case 'x': {
          if (pos_ + 2 > src_.size()) fail("bad \\x escape");
          int v = 0;
          for (int i = 0; i < 2; ++i) {
            char h = src_[pos_++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= h - '0';
            else if (h >= 'a' && h <= 'f') v |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') v |= h - 'A' + 10;
            else fail("bad hex digit in \\x escape");
          }
          out.push_back(static_cast<char>(v));
          break;
        }
        default:
          fail(std::string("unknown escape \\") + e);
      }
    } else {
      out.push_back(c);
      ++pos_;
    }
  }
  t.end = pos_;
  t.text = std::move(out);
  return t;
}

Token Lexer::lex_identifier() {
  Token t;
  t.begin = pos_;
  while (!eof()) {
    char c = peek();
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$') {
      ++pos_;
    } else {
      break;
    }
  }
  t.end = pos_;
  std::string_view word = src_.substr(t.begin, t.end - t.begin);
  auto it = keywords().find(word);
  if (it != keywords().end()) {
    t.kind = it->second;
  } else {
    t.kind = TokenKind::kIdentifier;
    t.text = std::string(word);
  }
  return t;
}

Token Lexer::lex_token() {
  skip_trivia();
  Token t;
  t.begin = pos_;
  if (eof()) {
    t.kind = TokenKind::kEof;
    t.end = pos_;
    return t;
  }
  char c = peek();
  if (std::isdigit(static_cast<unsigned char>(c))) return lex_number();
  if (c == '"' || c == '\'') return lex_string(c);
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '$') {
    return lex_identifier();
  }

  auto two = [&](TokenKind kind) {
    t.kind = kind;
    pos_ += 2;
    t.end = pos_;
    return t;
  };
  auto one = [&](TokenKind kind) {
    t.kind = kind;
    pos_ += 1;
    t.end = pos_;
    return t;
  };

  char d = peek(1);
  switch (c) {
    case '(': return one(TokenKind::kLParen);
    case ')': return one(TokenKind::kRParen);
    case '{': return one(TokenKind::kLBrace);
    case '}': return one(TokenKind::kRBrace);
    case '[':
      if (!after_operand_ && lex_number_list(t)) return t;
      return one(TokenKind::kLBracket);
    case ']': return one(TokenKind::kRBracket);
    case ',': return one(TokenKind::kComma);
    case ';': return one(TokenKind::kSemicolon);
    case ':': return one(TokenKind::kColon);
    case '?': return one(TokenKind::kQuestion);
    case '.': return one(TokenKind::kDot);
    case '+':
      if (d == '+') return two(TokenKind::kPlusPlus);
      if (d == '=') return two(TokenKind::kPlusAssign);
      return one(TokenKind::kPlus);
    case '-':
      if (d == '-') return two(TokenKind::kMinusMinus);
      if (d == '=') return two(TokenKind::kMinusAssign);
      return one(TokenKind::kMinus);
    case '*':
      if (d == '=') return two(TokenKind::kStarAssign);
      return one(TokenKind::kStar);
    case '/':
      if (d == '=') return two(TokenKind::kSlashAssign);
      return one(TokenKind::kSlash);
    case '%': return one(TokenKind::kPercent);
    case '=':
      if (d == '=') return two(TokenKind::kEq);
      return one(TokenKind::kAssign);
    case '!':
      if (d == '=') return two(TokenKind::kNeq);
      return one(TokenKind::kNot);
    case '<':
      if (d == '=') return two(TokenKind::kLe);
      return one(TokenKind::kLt);
    case '>':
      if (d == '=') return two(TokenKind::kGe);
      return one(TokenKind::kGt);
    case '&':
      if (d == '&') return two(TokenKind::kAndAnd);
      fail("single '&' is not supported");
    case '|':
      if (d == '|') return two(TokenKind::kOrOr);
      fail("single '|' is not supported");
    default:
      fail(std::string("unexpected character '") + c + "'");
  }
}

}  // namespace offload::jsvm
