#include "parser/lexer.h"

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

namespace {

// ASCII character classes, the sets <cctype> has in the C locale. A
// byte outside ASCII is in none of them.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsUpper(char c) { return c >= 'A' && c <= 'Z'; }
bool IsLower(char c) { return c >= 'a' && c <= 'z'; }
bool IsWordChar(char c) {
  return IsLower(c) || IsUpper(c) || IsDigit(c) || c == '_';
}

// Significant digits of the largest literal magnitude: any longer run
// of digits (after leading zeros) is out of range, and any run this long
// fits in 64 bits.
constexpr size_t kMaxIntDigits = 19;
static_assert(static_cast<uint64_t>(Value::kMaxInt) <
              10'000'000'000'000'000'000u);

}  // namespace

Status Lexer::Error(const std::string& what, int line, int column) const {
  return Status::ParseError(what + " at line " + std::to_string(line) +
                            ", column " + std::to_string(column));
}

bool Lexer::SkipBlankRun() {
  const char* const s = src_.data();
  const size_t n = src_.size();
  size_t p = pos_;
  for (;;) {
    while (p < n && IsSpace(s[p])) {
      if (s[p] == '\n') NewLine(p);
      ++p;
    }
    if (p == n) break;
    if (s[p] == '%' || (s[p] == '/' && p + 1 < n && s[p + 1] == '/')) {
      // To the end of the line; the newline is whitespace.
      while (p < n && s[p] != '\n') ++p;
      continue;
    }
    if (s[p] == '/' && p + 1 < n && s[p + 1] == '*') {
      const Mark open{p, line_, line_start_};
      for (p += 2; p + 1 < n && !(s[p] == '*' && s[p + 1] == '/'); ++p) {
        if (s[p] == '\n') NewLine(p);
      }
      if (p + 1 >= n) {
        Restore(open);  // unterminated: stand at its "/*"
        return false;
      }
      p += 2;
      continue;
    }
    break;
  }
  pos_ = p;
  return true;
}

bool Lexer::ScanDigits(int64_t* value) {
  const char* const s = src_.data();
  const size_t n = src_.size();
  size_t p = pos_;
  while (p < n && s[p] == '0') ++p;
  const size_t first = p;
  // Past kMaxIntDigits digits the sum may wrap, but then the length
  // alone puts the literal out of range.
  uint64_t v = 0;
  for (; p < n && IsDigit(s[p]); ++p) v = v * 10 + (s[p] - '0');
  pos_ = p;
  if (p - first > kMaxIntDigits || v > static_cast<uint64_t>(Value::kMaxInt)) {
    return false;
  }
  *value = static_cast<int64_t>(v);
  return true;
}

Status Lexer::Next(Token* tok) {
  tok->text.clear();
  tok->int_value = 0;
  const bool closed = SkipBlank();
  tok->line = line_;
  tok->column = Column();
  if (!closed) {
    return Error("unterminated block comment", tok->line, tok->column);
  }
  if (AtEnd()) {
    tok->kind = TokenKind::kEof;
    return Status::OK();
  }
  const char c = Peek();
  if (IsDigit(c)) return LexInteger(tok);
  if (IsLower(c) || IsUpper(c) || c == '_') {
    LexWord(tok);
    return Status::OK();
  }
  if (c == '"') return LexString(tok);
  return LexPunct(tok);
}

Status Lexer::LexInteger(Token* tok) {
  tok->kind = TokenKind::kInteger;
  // Checked against Value's inline-int payload (61 bits), not int64:
  // a literal the lexer accepts must be representable downstream, or
  // Value::Int would hit its range invariant.
  if (!ScanDigits(&tok->int_value)) {
    return Error(std::string("[") + std::string(diag::kIntLiteralRange) +
                     "] integer literal out of range (inline ints span [" +
                     std::to_string(Value::kMinInt) + ", " +
                     std::to_string(Value::kMaxInt) + "])",
                 tok->line, tok->column);
  }
  return Status::OK();
}

void Lexer::LexWord(Token* tok) {
  const size_t start = pos_;
  while (!AtEnd() && IsWordChar(Peek())) ++pos_;
  const char first = src_[start];
  tok->kind = (IsUpper(first) || first == '_') ? TokenKind::kVariable
                                               : TokenKind::kIdent;
  tok->text.assign(src_.substr(start, pos_ - start));
}

Status Lexer::LexString(Token* tok) {
  ++pos_;  // opening quote
  while (!AtEnd() && Peek() != '"') {
    char c = Peek();
    if (c == '\\' && pos_ + 1 < src_.size()) {
      const size_t at = pos_;
      const char esc = Peek(1);
      pos_ += 2;
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
          return Error(std::string("unknown escape '\\") + esc + "'", line_,
                       Column(at));
      }
    } else {
      if (c == '\n') NewLine(pos_);
      ++pos_;
    }
    tok->text += c;
  }
  if (AtEnd()) {
    return Error("unterminated string literal", tok->line, tok->column);
  }
  ++pos_;  // closing quote
  tok->kind = TokenKind::kString;
  return Status::OK();
}

Status Lexer::LexPunct(Token* tok) {
  const char c = src_[pos_++];
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
        ++pos_;
        tok->kind = TokenKind::kNe;
        return Status::OK();
      }
      return Error("expected '=' after '!'", tok->line, tok->column);
    case ':':
      if (Peek() == '-') {
        ++pos_;
        tok->kind = TokenKind::kArrow;
        return Status::OK();
      }
      return Error("expected '-' after ':'", tok->line, tok->column);
    case '<':
      if (Peek() == '-') {
        ++pos_;
        tok->kind = TokenKind::kArrow;
        return Status::OK();
      }
      if (Peek() == '=') {
        ++pos_;
        tok->kind = TokenKind::kLe;
        return Status::OK();
      }
      if (Peek() == '>') {
        ++pos_;
        tok->kind = TokenKind::kNe;
        return Status::OK();
      }
      tok->kind = TokenKind::kLt;
      return Status::OK();
    case '>':
      if (Peek() == '=') {
        ++pos_;
        tok->kind = TokenKind::kGe;
        return Status::OK();
      }
      tok->kind = TokenKind::kGt;
      return Status::OK();
    default:
      return Error(std::string("unexpected character '") + c + "'",
                   tok->line, tok->column);
  }
}

std::string_view Lexer::ScanIdent() {
  const size_t start = pos_;
  if (!IsLower(Peek())) return {};
  while (!AtEnd() && IsWordChar(Peek())) ++pos_;
  return src_.substr(start, pos_ - start);
}

bool Lexer::ScanConstant(Value* value, std::string_view* symbol) {
  const char c = Peek();
  if (c == '"') {
    const size_t start = ++pos_;
    for (; !AtEnd() && Peek() != '"'; ++pos_) {
      if (Peek() == '\\') return false;
      if (Peek() == '\n') NewLine(pos_);
    }
    if (AtEnd()) return false;
    *symbol = src_.substr(start, pos_ - start);
    ++pos_;  // closing quote
    return true;
  }
  const bool negative = c == '-';
  if (negative) ++pos_;
  if (IsDigit(Peek())) {
    // The literal's magnitude must itself be in range, as LexInteger
    // demands of the token the parser would negate.
    int64_t v = 0;
    if (!ScanDigits(&v)) return false;
    *value = Value::Int(negative ? -v : v);
    return true;
  }
  if (negative) return false;
  const std::string_view name = ScanIdent();
  if (name.empty()) return false;
  if (name == "nil") {
    *value = Value::Nil();
  } else {
    *symbol = name;
  }
  return true;
}

bool Lexer::ScanGroundFact(ValueStore* store, ScannedFact* fact) {
  const Mark start = Save();
  auto fail = [&] {
    Restore(start);
    return false;
  };
  if (!SkipBlank()) return fail();
  fact->line = line_;
  fact->column = Column();
  fact->predicate = ScanIdent();
  fact->row.clear();
  if (fact->predicate.empty() || !SkipBlank()) return fail();
  if (Peek() == '(') {
    ++pos_;
    if (!SkipBlank()) return fail();
    if (Peek() == ')') {
      ++pos_;
    } else {
      for (;;) {
        Value value;
        std::string_view symbol;
        if (!ScanConstant(&value, &symbol) || !SkipBlank()) return fail();
        // A constant followed by '(' is a functor; by anything but ','
        // or ')', an expression. A symbol is interned only once it is
        // known to be a constant, so the token parser, taking over,
        // interns the same symbols in the same order.
        const char c = Peek();
        if (c != ',' && c != ')') return fail();
        ++pos_;
        fact->row.push_back(symbol.data() != nullptr
                                ? store->MakeSymbol(symbol)
                                : value);
        if (c == ')') break;
        if (!SkipBlank()) return fail();
      }
    }
    if (!SkipBlank()) return fail();
  }
  if (Peek() != '.') return fail();
  ++pos_;
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
