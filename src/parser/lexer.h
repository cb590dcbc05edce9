// Lexer for the choice-Datalog surface syntax.
//
// Token classes: lowercase identifiers (predicate/functor/constant names
// and the keywords not/nil/choice/least/most/next/mod/min/max), variables
// (uppercase or `_` start), integers, double-quoted strings, and
// punctuation. Comments: `%` and `//` to end of line, `/* ... */`.
//
// The lexer streams: the parser pulls one token at a time, so a program
// is never held as a token vector. At each clause start the parser first
// asks for a raw-character scan of a ground fact over constants, which
// is how bulk fact data loads without tokens or an AST.
#ifndef GDLOG_PARSER_LEXER_H_
#define GDLOG_PARSER_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "value/value.h"

namespace gdlog {

enum class TokenKind : uint8_t {
  kIdent,     // lowercase-start identifier
  kVariable,  // uppercase- or underscore-start identifier
  kInteger,
  kString,    // "..." (content without quotes)
  kLParen,
  kRParen,
  kComma,
  kDot,
  kArrow,     // <- or :-
  kEq,        // =
  kNe,        // != or <>
  kLt,
  kLe,
  kGt,
  kGe,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kEof,
  kError,     // the lexer failed; its status says why and where
};

std::string_view TokenKindName(TokenKind k);

struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string text;   // identifier / variable / string content
  int64_t int_value = 0;
  int line = 1;
  int column = 1;
};

/// One ground fact over constants, as ScanGroundFact found it: its
/// predicate name (pointing into the source) and its row of values.
struct ScannedFact {
  std::string_view predicate;
  int line = 1;
  int column = 1;
  std::vector<Value> row;  // reused across scans
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  /// Lexes the next token (kEof at the end of input), or returns a
  /// ParseError naming the line/column where the offending character
  /// or literal starts. Columns count bytes from 1.
  Status Next(Token* tok);

  /// At a clause start, scans `p.` or `p(c1, ..., cn).` where every ci
  /// is an integer in Value's inline range (optionally negated), a
  /// lowercase symbol, nil, or a string without escapes, into
  /// `fact->row`, interning symbols into `store` as each constant ends.
  /// On success the lexer stands after the '.'. Anything else — a rule,
  /// a fact with a variable, tuple, functor or arithmetic argument, an
  /// escape, or an error — returns false with the lexer where it was,
  /// for the parser to take token by token.
  bool ScanGroundFact(ValueStore* store, ScannedFact* fact);

 private:
  // Lines are counted as newlines are passed; a column is computed from
  // the offset of the current line's first byte.
  struct Mark {
    size_t pos;
    int line;
    size_t line_start;
  };
  Mark Save() const { return {pos_, line_, line_start_}; }
  void Restore(Mark m) {
    pos_ = m.pos;
    line_ = m.line;
    line_start_ = m.line_start;
  }
  /// Records the newline at offset `at`.
  void NewLine(size_t at) {
    ++line_;
    line_start_ = at + 1;
  }
  /// Column of offset `at` on the current line.
  int Column(size_t at) const { return static_cast<int>(at - line_start_) + 1; }
  int Column() const { return Column(pos_); }

  bool AtEnd() const { return pos_ >= src_.size(); }
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  Status Error(const std::string& what, int line, int column) const;
  /// Skips whitespace and comments. False on an unterminated block
  /// comment, with the lexer at its "/*". The common case, nothing to
  /// skip, is decided inline.
  bool SkipBlank() {
    if (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c > ' ' && c != '%' && c != '/') return true;
    }
    return SkipBlankRun();
  }
  bool SkipBlankRun();
  /// Consumes a run of digits into `*value`; false when it exceeds
  /// Value::kMaxInt.
  bool ScanDigits(int64_t* value);
  Status LexInteger(Token* tok);
  void LexWord(Token* tok);
  Status LexString(Token* tok);
  Status LexPunct(Token* tok);
  // ScanGroundFact helpers: each consumes one item or returns false.
  std::string_view ScanIdent();
  /// An int or nil into `*value`, or a symbol or escape-free string
  /// whose name goes to `*symbol`, uninterned.
  bool ScanConstant(Value* value, std::string_view* symbol);

  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
  size_t line_start_ = 0;
};

/// Tokenizes `source` completely (appending a kEof token), or returns a
/// ParseError naming the offending line/column.
Result<std::vector<Token>> Tokenize(std::string_view source);

}  // namespace gdlog

#endif  // GDLOG_PARSER_LEXER_H_
