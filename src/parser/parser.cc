#include "parser/parser.h"

#include <optional>

#include "parser/lexer.h"

namespace gdlog {

namespace {

bool IsComparisonToken(TokenKind k) {
  switch (k) {
    case TokenKind::kEq:
    case TokenKind::kNe:
    case TokenKind::kLt:
    case TokenKind::kLe:
    case TokenKind::kGt:
    case TokenKind::kGe:
      return true;
    default:
      return false;
  }
}

ComparisonOp ToComparisonOp(TokenKind k) {
  switch (k) {
    case TokenKind::kEq:
      return ComparisonOp::kEq;
    case TokenKind::kNe:
      return ComparisonOp::kNe;
    case TokenKind::kLt:
      return ComparisonOp::kLt;
    case TokenKind::kLe:
      return ComparisonOp::kLe;
    case TokenKind::kGt:
      return ComparisonOp::kGt;
    default:
      return ComparisonOp::kGe;
  }
}

class Parser {
 public:
  Parser(ValueStore* store, std::string_view source)
      : store_(store), lexer_(source) {}

  // Clauses are numbered in source order, facts and rules alike. A
  // ground fact over constants goes straight from characters to a row
  // of its predicate's batch; any other clause is parsed token by
  // token, and if it turns out to be a ground fact it becomes a row
  // all the same.
  Result<Program> ParseProgram() {
    Program prog;
    size_t batch = 0;
    for (uint32_t clause = 0;; ++clause) {
      if (lexer_.ScanGroundFact(store_, &scanned_)) {
        prog.AddFact(scanned_.predicate, scanned_.row, clause,
                     SourceLoc{scanned_.line, scanned_.column}, &batch);
        continue;
      }
      if (Check(TokenKind::kEof)) return prog;
      GDLOG_ASSIGN_OR_RETURN(Rule rule, ParseOneRule());
      if (prog.AddGroundFact(rule, clause, store_, &batch)) continue;
      prog.rules.push_back(std::move(rule));
      prog.rule_clauses.push_back(clause);
    }
  }

  Result<Rule> ParseSingleRule() {
    GDLOG_ASSIGN_OR_RETURN(Rule rule, ParseOneRule());
    if (!Check(TokenKind::kEof)) {
      return Error("trailing input after rule");
    }
    return rule;
  }

 private:
  // Tokens are lexed on demand, so that at a clause start none is
  // pending and the lexer can try its raw fact scan. A lexer failure
  // becomes a kError token, which matches nothing; the parser reports
  // it through Error() when it gets stuck there.
  const Token& Peek() {
    if (!have_tok_) {
      const Status st = lexer_.Next(&tok_);
      if (!st.ok()) {
        lex_error_ = st;
        tok_.kind = TokenKind::kError;
      }
      have_tok_ = true;
    }
    return tok_;
  }
  void Advance() { have_tok_ = tok_.kind == TokenKind::kError; }
  bool Check(TokenKind k) { return Peek().kind == k; }
  bool Match(TokenKind k) {
    if (!Check(k)) return false;
    Advance();
    return true;
  }

  Status Error(const std::string& what) {
    const Token& t = Peek();
    if (t.kind == TokenKind::kError) return lex_error_;
    return Status::ParseError(what + " at line " + std::to_string(t.line) +
                              ", column " + std::to_string(t.column) +
                              " (found " +
                              std::string(TokenKindName(t.kind)) + ")");
  }

  Status Expect(TokenKind k, const char* context) {
    if (Match(k)) return Status::OK();
    return Error(std::string("expected ") + std::string(TokenKindName(k)) +
                 " " + context);
  }

  std::string FreshAnonymous() {
    return std::string(kAnonymousVarPrefix) + std::to_string(anon_counter_++);
  }

  static SourceLoc LocOf(const Token& t) { return SourceLoc{t.line, t.column}; }

  Result<Rule> ParseOneRule() {
    anon_counter_ = 0;
    const SourceLoc loc = LocOf(Peek());
    GDLOG_ASSIGN_OR_RETURN(Literal head, ParseAtom(/*negated=*/false));
    Rule rule;
    rule.loc = loc;
    rule.head = std::move(head);
    if (Match(TokenKind::kArrow)) {
      GDLOG_ASSIGN_OR_RETURN(rule.body, ParseBody());
    }
    GDLOG_RETURN_IF_ERROR(Expect(TokenKind::kDot, "to end rule"));
    return rule;
  }

  Result<std::vector<Literal>> ParseBody() {
    std::vector<Literal> body;
    do {
      GDLOG_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
      body.push_back(std::move(lit));
    } while (Match(TokenKind::kComma));
    return body;
  }

  Result<Literal> ParseLiteral() {
    const SourceLoc loc = LocOf(Peek());
    GDLOG_ASSIGN_OR_RETURN(Literal lit, ParseLiteralImpl());
    lit.loc = loc;
    return lit;
  }

  Result<Literal> ParseLiteralImpl() {
    if (Check(TokenKind::kIdent)) {
      const std::string& word = Peek().text;
      if (word == "not") {
        Advance();
        if (Match(TokenKind::kLParen)) {
          GDLOG_ASSIGN_OR_RETURN(std::vector<Literal> conj, ParseBody());
          GDLOG_RETURN_IF_ERROR(
              Expect(TokenKind::kRParen, "to close 'not ('"));
          // `not (single_atom)` is just a negated atom.
          if (conj.size() == 1 && conj[0].kind == LiteralKind::kAtom &&
              !conj[0].negated) {
            conj[0].negated = true;
            return std::move(conj[0]);
          }
          return Literal::NotExists(std::move(conj));
        }
        return ParseAtom(/*negated=*/true);
      }
      if (word == "choice") {
        Advance();
        GDLOG_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after 'choice'"));
        GDLOG_ASSIGN_OR_RETURN(TermNode left, ParseExpr());
        GDLOG_RETURN_IF_ERROR(
            Expect(TokenKind::kComma, "between choice arguments"));
        GDLOG_ASSIGN_OR_RETURN(TermNode right, ParseExpr());
        GDLOG_RETURN_IF_ERROR(
            Expect(TokenKind::kRParen, "to close 'choice('"));
        return Literal::Choice(std::move(left), std::move(right));
      }
      if (word == "least" || word == "most") {
        const bool is_least = word == "least";
        Advance();
        GDLOG_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after extremum"));
        GDLOG_ASSIGN_OR_RETURN(TermNode cost, ParseExpr());
        TermNode group = TermNode::Tuple({});
        if (Match(TokenKind::kComma)) {
          GDLOG_ASSIGN_OR_RETURN(group, ParseExpr());
        }
        GDLOG_RETURN_IF_ERROR(
            Expect(TokenKind::kRParen, "to close extremum goal"));
        return is_least ? Literal::Least(std::move(cost), std::move(group))
                        : Literal::Most(std::move(cost), std::move(group));
      }
      if (word == "next") {
        Advance();
        GDLOG_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after 'next'"));
        if (!Check(TokenKind::kVariable)) {
          return Error("next(...) takes a single variable");
        }
        TermNode var = TermNode::Var(Peek().text == "_" ? FreshAnonymous()
                                                        : Peek().text);
        Advance();
        GDLOG_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close 'next('"));
        return Literal::Next(std::move(var));
      }
    }
    // Either an atom or a comparison. Parse an expression first; if a
    // comparison operator follows, it is a comparison. Otherwise the
    // expression must have the shape of an atom.
    GDLOG_ASSIGN_OR_RETURN(TermNode expr, ParseExpr());
    if (IsComparisonToken(Peek().kind)) {
      const ComparisonOp op = ToComparisonOp(Peek().kind);
      Advance();
      GDLOG_ASSIGN_OR_RETURN(TermNode rhs, ParseExpr());
      return Literal::Comparison(op, std::move(expr), std::move(rhs));
    }
    // Atom shape: a compound with a non-arithmetic, non-tuple functor, or
    // a bare lowercase identifier (0-ary predicate, parsed as constant).
    if (expr.is_compound() && !expr.is_tuple() &&
        !IsArithmeticFunctor(expr.name)) {
      return Literal::Atom(expr.name, std::move(expr.args));
    }
    if (expr.is_const() && expr.constant.is_symbol()) {
      return Literal::Atom(std::string(store_->SymbolName(expr.constant)), {});
    }
    return Error("expected an atom or a comparison");
  }

  Result<Literal> ParseAtom(bool negated) {
    if (!Check(TokenKind::kIdent)) {
      return Error("expected a predicate name");
    }
    const SourceLoc loc = LocOf(Peek());
    std::string name = Peek().text;
    Advance();
    std::vector<TermNode> args;
    if (Match(TokenKind::kLParen)) {
      if (!Check(TokenKind::kRParen)) {
        do {
          GDLOG_ASSIGN_OR_RETURN(TermNode arg, ParseExpr());
          args.push_back(std::move(arg));
        } while (Match(TokenKind::kComma));
      }
      GDLOG_RETURN_IF_ERROR(
          Expect(TokenKind::kRParen, "to close argument list"));
    }
    Literal atom = Literal::Atom(std::move(name), std::move(args), negated);
    atom.loc = loc;
    return atom;
  }

  // expr := mul { (+|-) mul }
  Result<TermNode> ParseExpr() {
    GDLOG_ASSIGN_OR_RETURN(TermNode lhs, ParseMul());
    while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) {
      const std::string op = Check(TokenKind::kPlus) ? "+" : "-";
      Advance();
      GDLOG_ASSIGN_OR_RETURN(TermNode rhs, ParseMul());
      std::vector<TermNode> args;
      args.push_back(std::move(lhs));
      args.push_back(std::move(rhs));
      lhs = TermNode::Compound(op, std::move(args));
    }
    return lhs;
  }

  // mul := primary { (*|/|mod) primary }
  Result<TermNode> ParseMul() {
    GDLOG_ASSIGN_OR_RETURN(TermNode lhs, ParsePrimary());
    for (;;) {
      const char* op = nullptr;
      if (Check(TokenKind::kStar)) {
        op = "*";
      } else if (Check(TokenKind::kSlash)) {
        op = "/";
      } else if (Check(TokenKind::kIdent) && Peek().text == "mod") {
        op = "mod";
      } else {
        break;
      }
      Advance();
      GDLOG_ASSIGN_OR_RETURN(TermNode rhs, ParsePrimary());
      std::vector<TermNode> args;
      args.push_back(std::move(lhs));
      args.push_back(std::move(rhs));
      lhs = TermNode::Compound(op, std::move(args));
    }
    return lhs;
  }

  Result<TermNode> ParsePrimary() {
    if (Check(TokenKind::kInteger)) {
      const int64_t v = Peek().int_value;
      Advance();
      return TermNode::Const(Value::Int(v));
    }
    if (Match(TokenKind::kMinus)) {
      GDLOG_ASSIGN_OR_RETURN(TermNode inner, ParsePrimary());
      if (inner.is_const() && inner.constant.is_int()) {
        return TermNode::Const(Value::Int(-inner.constant.AsInt()));
      }
      std::vector<TermNode> args;
      args.push_back(TermNode::Const(Value::Int(0)));
      args.push_back(std::move(inner));
      return TermNode::Compound("-", std::move(args));
    }
    if (Check(TokenKind::kVariable)) {
      std::string name = Peek().text;
      Advance();
      if (name == "_") name = FreshAnonymous();
      return TermNode::Var(std::move(name));
    }
    if (Check(TokenKind::kString)) {
      TermNode t = TermNode::Const(store_->MakeSymbol(Peek().text));
      Advance();
      return t;
    }
    if (Check(TokenKind::kIdent)) {
      std::string name = Peek().text;
      Advance();
      if (name == "nil") return TermNode::Const(Value::Nil());
      if (Match(TokenKind::kLParen)) {
        std::vector<TermNode> args;
        if (!Check(TokenKind::kRParen)) {
          do {
            GDLOG_ASSIGN_OR_RETURN(TermNode arg, ParseExpr());
            args.push_back(std::move(arg));
          } while (Match(TokenKind::kComma));
        }
        GDLOG_RETURN_IF_ERROR(
            Expect(TokenKind::kRParen, "to close argument list"));
        return TermNode::Compound(std::move(name), std::move(args));
      }
      return TermNode::Const(store_->MakeSymbol(name));
    }
    if (Match(TokenKind::kLParen)) {
      // () is the empty tuple; (e) is grouping; (e1, e2, ...) is a tuple.
      if (Match(TokenKind::kRParen)) return TermNode::Tuple({});
      std::vector<TermNode> elems;
      do {
        GDLOG_ASSIGN_OR_RETURN(TermNode e, ParseExpr());
        elems.push_back(std::move(e));
      } while (Match(TokenKind::kComma));
      GDLOG_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close tuple"));
      if (elems.size() == 1) return std::move(elems[0]);
      return TermNode::Tuple(std::move(elems));
    }
    return Error("expected a term");
  }

  ValueStore* store_;
  Lexer lexer_;
  Token tok_;
  bool have_tok_ = false;
  Status lex_error_;
  ScannedFact scanned_;
  int anon_counter_ = 0;
};

}  // namespace

Result<Program> ParseProgram(ValueStore* store, std::string_view source) {
  return Parser(store, source).ParseProgram();
}

Result<Rule> ParseRule(ValueStore* store, std::string_view source) {
  return Parser(store, source).ParseSingleRule();
}

}  // namespace gdlog
