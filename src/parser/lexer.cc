#include "parser/lexer.h"

#include <cctype>

#include "analysis/diagnostics.h"
#include "value/value.h"

namespace gdlog {

std::string_view TokenKindName(TokenKind k) {
  switch (k) {
    case TokenKind::kIdent:
      return "identifier";
    case TokenKind::kVariable:
      return "variable";
    case TokenKind::kInteger:
      return "integer";
    case TokenKind::kString:
      return "string";
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kComma:
      return "','";
    case TokenKind::kDot:
      return "'.'";
    case TokenKind::kArrow:
      return "'<-'";
    case TokenKind::kEq:
      return "'='";
    case TokenKind::kNe:
      return "'!='";
    case TokenKind::kLt:
      return "'<'";
    case TokenKind::kLe:
      return "'<='";
    case TokenKind::kGt:
      return "'>'";
    case TokenKind::kGe:
      return "'>='";
    case TokenKind::kPlus:
      return "'+'";
    case TokenKind::kMinus:
      return "'-'";
    case TokenKind::kStar:
      return "'*'";
    case TokenKind::kSlash:
      return "'/'";
    case TokenKind::kEof:
      return "end of input";
    case TokenKind::kError:
      return "invalid token";
  }
  return "?";
}

char Lexer::Advance() {
  const char c = src_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

Status Lexer::Error(const std::string& what) const {
  return Status::ParseError(what + " at line " + std::to_string(line_) +
                            ", column " + std::to_string(column_));
}

Status Lexer::Next(Token* tok) {
  GDLOG_RETURN_IF_ERROR(SkipWhitespaceAndComments());
  tok->text.clear();
  tok->int_value = 0;
  tok->line = line_;
  tok->column = column_;
  if (AtEnd()) {
    tok->kind = TokenKind::kEof;
    return Status::OK();
  }
  const char c = Peek();
  if (std::isdigit(static_cast<unsigned char>(c))) return LexInteger(tok);
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
    LexWord(tok);
    return Status::OK();
  }
  if (c == '"') return LexString(tok);
  return LexPunct(tok);
}

Status Lexer::SkipWhitespaceAndComments() {
  for (;;) {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
    if (Peek() == '%' || (Peek() == '/' && Peek(1) == '/')) {
      while (!AtEnd() && Peek() != '\n') Advance();
      continue;
    }
    if (Peek() == '/' && Peek(1) == '*') {
      Advance();
      Advance();
      while (!AtEnd() && !(Peek() == '*' && Peek(1) == '/')) Advance();
      if (AtEnd()) return Error("unterminated block comment");
      Advance();
      Advance();
      continue;
    }
    return Status::OK();
  }
}

Status Lexer::LexInteger(Token* tok) {
  tok->kind = TokenKind::kInteger;
  int64_t v = 0;
  bool overflow = false;
  while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
    const int d = Advance() - '0';
    if (v > (INT64_MAX - d) / 10) overflow = true;
    if (!overflow) v = v * 10 + d;
  }
  // Checked against Value's inline-int payload (61 bits), not int64:
  // a literal the lexer accepts must be representable downstream, or
  // Value::Int would hit its range invariant.
  if (overflow || !Value::IntInRange(v)) {
    return Error(std::string("[") + std::string(diag::kIntLiteralRange) +
                 "] integer literal out of range (inline ints span [" +
                 std::to_string(Value::kMinInt) + ", " +
                 std::to_string(Value::kMaxInt) + "])");
  }
  tok->int_value = v;
  return Status::OK();
}

void Lexer::LexWord(Token* tok) {
  const size_t start = pos_;
  while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                      Peek() == '_')) {
    Advance();
  }
  const char first = src_[start];
  tok->kind = (std::isupper(static_cast<unsigned char>(first)) || first == '_')
                  ? TokenKind::kVariable
                  : TokenKind::kIdent;
  tok->text.assign(src_.substr(start, pos_ - start));
}

Status Lexer::LexString(Token* tok) {
  Advance();  // opening quote
  while (!AtEnd() && Peek() != '"') {
    char c = Advance();
    if (c == '\\' && !AtEnd()) {
      const char esc = Advance();
      switch (esc) {
        case 'n':
          c = '\n';
          break;
        case 't':
          c = '\t';
          break;
        case '\\':
          c = '\\';
          break;
        case '"':
          c = '"';
          break;
        default:
          return Error(std::string("unknown escape '\\") + esc + "'");
      }
    }
    tok->text += c;
  }
  if (AtEnd()) return Error("unterminated string literal");
  Advance();  // closing quote
  tok->kind = TokenKind::kString;
  return Status::OK();
}

Status Lexer::LexPunct(Token* tok) {
  const char c = Advance();
  switch (c) {
    case '(':
      tok->kind = TokenKind::kLParen;
      return Status::OK();
    case ')':
      tok->kind = TokenKind::kRParen;
      return Status::OK();
    case ',':
      tok->kind = TokenKind::kComma;
      return Status::OK();
    case '.':
      tok->kind = TokenKind::kDot;
      return Status::OK();
    case '+':
      tok->kind = TokenKind::kPlus;
      return Status::OK();
    case '-':
      tok->kind = TokenKind::kMinus;
      return Status::OK();
    case '*':
      tok->kind = TokenKind::kStar;
      return Status::OK();
    case '/':
      tok->kind = TokenKind::kSlash;
      return Status::OK();
    case '=':
      tok->kind = TokenKind::kEq;
      return Status::OK();
    case '!':
      if (Peek() == '=') {
        Advance();
        tok->kind = TokenKind::kNe;
        return Status::OK();
      }
      return Error("expected '=' after '!'");
    case ':':
      if (Peek() == '-') {
        Advance();
        tok->kind = TokenKind::kArrow;
        return Status::OK();
      }
      return Error("expected '-' after ':'");
    case '<':
      if (Peek() == '-') {
        Advance();
        tok->kind = TokenKind::kArrow;
        return Status::OK();
      }
      if (Peek() == '=') {
        Advance();
        tok->kind = TokenKind::kLe;
        return Status::OK();
      }
      if (Peek() == '>') {
        Advance();
        tok->kind = TokenKind::kNe;
        return Status::OK();
      }
      tok->kind = TokenKind::kLt;
      return Status::OK();
    case '>':
      if (Peek() == '=') {
        Advance();
        tok->kind = TokenKind::kGe;
        return Status::OK();
      }
      tok->kind = TokenKind::kGt;
      return Status::OK();
    default:
      return Error(std::string("unexpected character '") + c + "'");
  }
}

std::string_view Lexer::ScanIdent() {
  const size_t start = pos_;
  if (!std::isalpha(static_cast<unsigned char>(Peek())) ||
      std::isupper(static_cast<unsigned char>(Peek()))) {
    return {};
  }
  while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                      Peek() == '_')) {
    Advance();
  }
  return src_.substr(start, pos_ - start);
}

bool Lexer::ScanConstant(ScannedFact::Arg* arg) {
  const char c = Peek();
  if (c == '"') {
    Advance();
    const size_t start = pos_;
    while (!AtEnd() && Peek() != '"') {
      if (Peek() == '\\') return false;
      Advance();
    }
    if (AtEnd()) return false;
    arg->is_symbol = true;
    arg->symbol = src_.substr(start, pos_ - start);
    Advance();  // closing quote
    return true;
  }
  const bool negative = c == '-';
  if (negative) Advance();
  if (std::isdigit(static_cast<unsigned char>(Peek()))) {
    // The literal's magnitude must itself be in range, as LexInteger
    // demands of the token the parser would negate.
    int64_t v = 0;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) {
      const int d = Advance() - '0';
      if (v > (Value::kMaxInt - d) / 10) return false;
      v = v * 10 + d;
    }
    arg->is_symbol = false;
    arg->value = Value::Int(negative ? -v : v);
    return true;
  }
  if (negative) return false;
  const std::string_view name = ScanIdent();
  if (name.empty()) return false;
  if (name == "nil") {
    arg->is_symbol = false;
    arg->value = Value::Nil();
  } else {
    arg->is_symbol = true;
    arg->symbol = name;
  }
  return true;
}

bool Lexer::ScanGroundFact(ScannedFact* fact) {
  const Mark start = Save();
  auto fail = [&] {
    Restore(start);
    return false;
  };
  if (!SkipWhitespaceAndComments().ok()) return fail();
  fact->line = line_;
  fact->column = column_;
  fact->predicate = ScanIdent();
  fact->args.clear();
  if (fact->predicate.empty()) return fail();
  if (!SkipWhitespaceAndComments().ok()) return fail();
  if (Peek() == '(') {
    Advance();
    if (!SkipWhitespaceAndComments().ok()) return fail();
    if (Peek() == ')') {
      Advance();
    } else {
      for (;;) {
        if (!ScanConstant(&fact->args.emplace_back())) return fail();
        // A constant followed by '(' is a functor; by anything but ','
        // or ')', an expression.
        if (!SkipWhitespaceAndComments().ok()) return fail();
        const char c = AtEnd() ? '\0' : Advance();
        if (c == ')') break;
        if (c != ',') return fail();
        if (!SkipWhitespaceAndComments().ok()) return fail();
      }
    }
    if (!SkipWhitespaceAndComments().ok()) return fail();
  }
  if (Peek() != '.') return fail();
  Advance();
  return true;
}

Result<std::vector<Token>> Tokenize(std::string_view source) {
  Lexer lexer(source);
  std::vector<Token> out;
  do {
    GDLOG_RETURN_IF_ERROR(lexer.Next(&out.emplace_back()));
  } while (out.back().kind != TokenKind::kEof);
  return out;
}

}  // namespace gdlog
