#include "ast/lexer.h"

#include <cctype>

namespace chronolog {

std::string_view TokenKindToString(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kVar: return "variable";
    case TokenKind::kInt: return "integer";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kComma: return "','";
    case TokenKind::kDot: return "'.'";
    case TokenKind::kColonDash: return "':-'";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kAt: return "'@'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kAmp: return "'&'";
    case TokenKind::kPipe: return "'|'";
    case TokenKind::kTilde: return "'~'";
    case TokenKind::kEq: return "'='";
    case TokenKind::kEof: return "end of input";
  }
  return "unknown";
}

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string Position(int line, int column) {
  return "line " + std::to_string(line) + ", column " + std::to_string(column);
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view source) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  int line = 1;
  int column = 1;

  auto advance = [&](std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
      if (i < source.size() && source[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
      ++i;
    }
  };

  while (i < source.size()) {
    char c = source[i];
    // Whitespace.
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }
    // Comments: % ... or // ... to end of line.
    if (c == '%' || (c == '/' && i + 1 < source.size() && source[i + 1] == '/')) {
      while (i < source.size() && source[i] != '\n') advance(1);
      continue;
    }

    Token tok;
    tok.line = line;
    tok.column = column;

    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = i;
      while (i < source.size() &&
             std::isdigit(static_cast<unsigned char>(source[i]))) {
        advance(1);
      }
      std::string_view digits = source.substr(start, i - start);
      // Times and offsets are int64: a literal above INT64_MAX would wrap
      // negative further down, so it is rejected here, located.
      constexpr uint64_t kMax = static_cast<uint64_t>(INT64_MAX);
      uint64_t value = 0;
      for (char d : digits) {
        uint64_t dv = static_cast<uint64_t>(d - '0');
        if (value > (kMax - dv) / 10) {
          return InvalidArgumentError("integer literal overflow at " +
                                      Position(tok.line, tok.column));
        }
        value = value * 10 + dv;
      }
      tok.kind = TokenKind::kInt;
      tok.int_value = value;
      tok.text = std::string(digits);
      tokens.push_back(std::move(tok));
      continue;
    }

    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = i;
      while (i < source.size() && IsIdentChar(source[i])) advance(1);
      tok.text = std::string(source.substr(start, i - start));
      bool is_var = (c == '_') || std::isupper(static_cast<unsigned char>(c));
      tok.kind = is_var ? TokenKind::kVar : TokenKind::kIdent;
      tokens.push_back(std::move(tok));
      continue;
    }

    if (c == '\'') {
      // Quoted constant: treated as an identifier token.
      advance(1);
      std::size_t start = i;
      while (i < source.size() && source[i] != '\'' && source[i] != '\n') {
        advance(1);
      }
      if (i >= source.size() || source[i] != '\'') {
        return InvalidArgumentError("unterminated quoted constant at " +
                                    Position(tok.line, tok.column));
      }
      tok.kind = TokenKind::kIdent;
      tok.text = std::string(source.substr(start, i - start));
      advance(1);  // closing quote
      tokens.push_back(std::move(tok));
      continue;
    }

    switch (c) {
      case '(': tok.kind = TokenKind::kLParen; advance(1); break;
      case ')': tok.kind = TokenKind::kRParen; advance(1); break;
      case ',': tok.kind = TokenKind::kComma; advance(1); break;
      case '.': tok.kind = TokenKind::kDot; advance(1); break;
      case '+': tok.kind = TokenKind::kPlus; advance(1); break;
      case '@': tok.kind = TokenKind::kAt; advance(1); break;
      case '/': tok.kind = TokenKind::kSlash; advance(1); break;
      case '&': tok.kind = TokenKind::kAmp; advance(1); break;
      case '|': tok.kind = TokenKind::kPipe; advance(1); break;
      case '~': tok.kind = TokenKind::kTilde; advance(1); break;
      case '=': tok.kind = TokenKind::kEq; advance(1); break;
      case ':':
        if (i + 1 < source.size() && source[i + 1] == '-') {
          tok.kind = TokenKind::kColonDash;
          advance(2);
        } else {
          return InvalidArgumentError("expected ':-' at " +
                                      Position(tok.line, tok.column));
        }
        break;
      default:
        return InvalidArgumentError(std::string("unexpected character '") + c +
                                    "' at " + Position(tok.line, tok.column));
    }
    tokens.push_back(std::move(tok));
  }

  Token eof;
  eof.kind = TokenKind::kEof;
  eof.line = line;
  eof.column = column;
  tokens.push_back(std::move(eof));
  return tokens;
}

}  // namespace chronolog
