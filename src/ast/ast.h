// Abstract syntax for the choice-Datalog language of the paper.
//
// A program is a list of rules plus its ground facts, kept as relation
// rows (FactBatch); a rule with an empty body and a non-ground head
// stays a rule. Rule bodies mix:
//
//   * positive / negated atoms            g(X,Y,C), not visited(Y)
//   * negated conjunctions                not (subtree(X,L), L < I)
//     (the NOT EXISTS form needed by Example 6's feasible rule)
//   * comparison builtins                 J < I, X != Y, C = C1 + C2
//   * the paper's meta-level predicates   choice(Y,(X,C)), least(C,I),
//                                         most(J,X), next(I)
//
// Terms are variables, constants, or compound terms. Compound terms with
// arithmetic functors (+ - * / mod min max) are evaluated; any other
// functor constructs an interned ground term (e.g. Huffman's t(X,Y)).
#ifndef GDLOG_AST_AST_H_
#define GDLOG_AST_AST_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "value/value.h"

namespace gdlog {

// ---------------------------------------------------------------------------
// Source locations
// ---------------------------------------------------------------------------

/// 1-based position of a syntactic construct in the program text. The
/// parser stamps every rule and literal with the location of its first
/// token; programmatically-built ASTs leave locations invalid (0,0).
struct SourceLoc {
  int line = 0;
  int column = 0;

  bool valid() const { return line > 0; }
  /// "line L, column C" (or "unknown location").
  std::string ToString() const;
  bool operator==(const SourceLoc&) const = default;
};

// ---------------------------------------------------------------------------
// Terms
// ---------------------------------------------------------------------------

enum class TermKind : uint8_t {
  kVariable,  // X, Cost, _G17 — or the anonymous "_"
  kConstant,  // 42, a, nil, "text"
  kCompound,  // t(X, Y), (X, C)  [tuple = reserved functor "$tuple"], J + 1
};

struct TermNode {
  TermKind kind;
  // kVariable: the variable's name ("_" was renamed apart by the parser).
  // kCompound: the functor name ("$tuple" for (..) tuples; "+","-","*",
  //            "/","mod","min","max" are the arithmetic functors).
  std::string name;
  Value constant;  // kConstant only
  std::vector<TermNode> args;  // kCompound only

  static TermNode Var(std::string n) {
    TermNode t;
    t.kind = TermKind::kVariable;
    t.name = std::move(n);
    return t;
  }
  static TermNode Const(Value v) {
    TermNode t;
    t.kind = TermKind::kConstant;
    t.constant = v;
    return t;
  }
  static TermNode Compound(std::string functor, std::vector<TermNode> as) {
    TermNode t;
    t.kind = TermKind::kCompound;
    t.name = std::move(functor);
    t.args = std::move(as);
    return t;
  }
  static TermNode Tuple(std::vector<TermNode> as) {
    return Compound("$tuple", std::move(as));
  }

  bool is_var() const { return kind == TermKind::kVariable; }
  bool is_const() const { return kind == TermKind::kConstant; }
  bool is_compound() const { return kind == TermKind::kCompound; }
  bool is_tuple() const { return is_compound() && name == "$tuple"; }
};

/// True for the functors evaluated as arithmetic rather than constructed.
bool IsArithmeticFunctor(const std::string& name);
/// True for a term evaluated as arithmetic: an arithmetic functor applied
/// to two arguments.
bool IsArithmeticTerm(const TermNode& t);

/// The parser renames each anonymous "_" apart as this prefix followed
/// by a per-rule counter ("_G0", "_G1", ...).
inline constexpr std::string_view kAnonymousVarPrefix = "_G";
/// True for a name of that form: the parser's name for an anonymous "_"
/// (a variable the program itself spells _G<n> reads the same).
bool IsAnonymousVariable(std::string_view name);

/// Appends the names of all variables in `t` (with repeats) to `out`.
void CollectVariables(const TermNode& t, std::vector<std::string>* out);
/// The distinct variable names of `t`, in first-occurrence order.
std::vector<std::string> DistinctVariables(const TermNode& t);

/// Structural equality of term ASTs.
bool TermEquals(const TermNode& a, const TermNode& b);

// ---------------------------------------------------------------------------
// Literals
// ---------------------------------------------------------------------------

enum class ComparisonOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

std::string_view ComparisonOpName(ComparisonOp op);
/// The comparison with swapped operands (kLt -> kGt etc.).
ComparisonOp FlipComparison(ComparisonOp op);

enum class LiteralKind : uint8_t {
  kAtom,        // p(t1,...,tn), possibly negated
  kNotExists,   // not (L1, ..., Lk): negated conjunction
  kComparison,  // t1 OP t2
  kChoice,      // choice(Left, Right): FD Left -> Right
  kLeast,       // least(Cost, Group)
  kMost,        // most(Cost, Group)
  kNext,        // next(I)
};

struct Literal {
  LiteralKind kind;

  // Location of the literal's first token (invalid for synthesized
  // literals, e.g. rewriter output).
  SourceLoc loc;

  // kAtom
  std::string predicate;
  std::vector<TermNode> args;
  bool negated = false;

  // kNotExists
  std::vector<Literal> body;  // the conjunction under the negation

  // kComparison
  ComparisonOp op = ComparisonOp::kEq;
  // lhs/rhs live in args[0]/args[1].

  // kChoice: args[0] = Left tuple/var, args[1] = Right tuple/var.
  // kLeast/kMost: args[0] = cost term (a variable), args[1] = group term
  //   (a variable, a tuple of variables, or the empty tuple `()`).
  // kNext: args[0] = the stage variable.

  static Literal Atom(std::string pred, std::vector<TermNode> as,
                      bool neg = false) {
    Literal l;
    l.kind = LiteralKind::kAtom;
    l.predicate = std::move(pred);
    l.args = std::move(as);
    l.negated = neg;
    return l;
  }
  static Literal NotExists(std::vector<Literal> conj) {
    Literal l;
    l.kind = LiteralKind::kNotExists;
    l.body = std::move(conj);
    return l;
  }
  static Literal Comparison(ComparisonOp op, TermNode lhs, TermNode rhs) {
    Literal l;
    l.kind = LiteralKind::kComparison;
    l.op = op;
    l.args.push_back(std::move(lhs));
    l.args.push_back(std::move(rhs));
    return l;
  }
  static Literal Choice(TermNode left, TermNode right) {
    Literal l;
    l.kind = LiteralKind::kChoice;
    l.args.push_back(std::move(left));
    l.args.push_back(std::move(right));
    return l;
  }
  static Literal Least(TermNode cost, TermNode group) {
    Literal l;
    l.kind = LiteralKind::kLeast;
    l.args.push_back(std::move(cost));
    l.args.push_back(std::move(group));
    return l;
  }
  static Literal Most(TermNode cost, TermNode group) {
    Literal l;
    l.kind = LiteralKind::kMost;
    l.args.push_back(std::move(cost));
    l.args.push_back(std::move(group));
    return l;
  }
  static Literal Next(TermNode var) {
    Literal l;
    l.kind = LiteralKind::kNext;
    l.args.push_back(std::move(var));
    return l;
  }

  bool is_positive_atom() const {
    return kind == LiteralKind::kAtom && !negated;
  }
  bool is_negated_atom() const { return kind == LiteralKind::kAtom && negated; }
  bool is_meta() const {
    return kind == LiteralKind::kChoice || kind == LiteralKind::kLeast ||
           kind == LiteralKind::kMost || kind == LiteralKind::kNext;
  }
};

// ---------------------------------------------------------------------------
// Rules and programs
// ---------------------------------------------------------------------------

struct Rule {
  Literal head;  // always a positive kAtom
  std::vector<Literal> body;
  // Location of the rule's first token (the head predicate name).
  SourceLoc loc;

  bool is_fact() const { return body.empty(); }
  /// True if any body literal is next(_).
  bool has_next() const;
  /// True if any body literal is a choice goal.
  bool has_choice() const;
  /// True if any body literal is least/most.
  bool has_extrema() const;
};

/// The ground facts of one predicate, as relation rows: `count` rows of
/// `arity` values each, stored back to back in `rows`, in source order.
struct FactBatch {
  std::string predicate;
  uint32_t arity = 0;
  size_t count = 0;
  std::vector<Value> rows;
  // Source clause number and location of the predicate's first fact.
  uint32_t first_clause = 0;
  SourceLoc loc;
};

/// A program's clauses, split by kind. Ground facts are data: they live
/// in `facts`, one batch per predicate, and the engine inserts them into
/// its relations at load. Everything else, including a fact with a
/// variable in it, is a rule. Facts and rules share one clause
/// numbering, in source order; it is the rule number users see.
struct Program {
  std::vector<Rule> rules;
  // Source clause number of rules[i], or empty when rules[i] is clause i.
  std::vector<uint32_t> rule_clauses;
  // In order of each predicate's first fact.
  std::vector<FactBatch> facts;

  /// Source clause number of rules[ri].
  uint32_t ClauseOf(size_t ri) const {
    return rule_clauses.empty() ? static_cast<uint32_t>(ri)
                                : rule_clauses[ri];
  }

  /// Appends one fact as clause `clause`, starting its predicate's batch
  /// on first sight. `batch_hint` caches the last batch used.
  void AddFact(std::string_view predicate, std::span<const Value> row,
               uint32_t clause, SourceLoc loc, size_t* batch_hint);
  /// AddFact for a parsed clause: true when `rule` has no body and a
  /// ground head (interned with GroundValue); false, with nothing
  /// added, when it is a rule.
  bool AddGroundFact(const Rule& rule, uint32_t clause, ValueStore* store,
                     size_t* batch_hint);

  /// Moves every ground fact out of `rules` into `facts` (interning
  /// compound arguments with GroundValue), keeping clause numbers. A
  /// programmatically built program arrives with its facts as rules.
  void SplitGroundFacts(ValueStore* store);

  /// All predicate name/arity pairs appearing anywhere in the program:
  /// rule predicates first, then fact-only ones.
  struct PredicateRef {
    std::string name;
    uint32_t arity;
    bool operator==(const PredicateRef&) const = default;
  };
  std::vector<PredicateRef> AllPredicates() const;
};

/// The value of a ground term: constants as they are, and compounds
/// interned as terms (tuples as tuples), arithmetic included — a fact
/// stores `1 + 2` as the term +(1, 2), it does not evaluate it. Fails
/// with InvalidArgument on a variable.
Result<Value> GroundValue(const TermNode& t, ValueStore* store);

/// Appends the names of all variables in `lit` (including those under
/// NotExists and inside meta-goal tuples) to `out`.
void CollectLiteralVariables(const Literal& lit, std::vector<std::string>* out);

}  // namespace gdlog

#endif  // GDLOG_AST_AST_H_
