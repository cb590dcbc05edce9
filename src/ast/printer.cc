#include "ast/printer.h"

#include <sstream>

namespace gdlog {

namespace {

// Precedence for infix arithmetic rendering: + - below * / mod.
int FunctorPrecedence(const std::string& f) {
  if (f == "+" || f == "-") return 1;
  if (f == "*" || f == "/" || f == "mod") return 2;
  return 0;  // not infix
}

void PrintTerm(const ValueStore& store, const TermNode& t, std::ostream& out,
               int parent_prec) {
  switch (t.kind) {
    case TermKind::kVariable:
      out << t.name;
      return;
    case TermKind::kConstant:
      out << store.ToString(t.constant);
      return;
    case TermKind::kCompound: {
      const int prec = FunctorPrecedence(t.name);
      if (prec > 0 && t.args.size() == 2) {
        const bool paren = prec < parent_prec;
        if (paren) out << "(";
        PrintTerm(store, t.args[0], out, prec);
        out << " " << t.name << " ";
        PrintTerm(store, t.args[1], out, prec + 1);
        if (paren) out << ")";
        return;
      }
      if (t.is_tuple()) {
        out << "(";
      } else {
        out << t.name << "(";
      }
      for (size_t i = 0; i < t.args.size(); ++i) {
        if (i) out << ", ";
        PrintTerm(store, t.args[i], out, 0);
      }
      out << ")";
      return;
    }
  }
}

/// A stored value as a ground term, so that a fact prints like the
/// clause it came from: +(1, 2) as `1 + 2`, tuples in parentheses.
TermNode GroundTerm(const ValueStore& store, Value v) {
  if (!v.is_term()) return TermNode::Const(v);
  std::vector<TermNode> args;
  for (Value a : store.TermArgs(v.AsTermId())) {
    args.push_back(GroundTerm(store, a));
  }
  if (store.IsTuple(v)) return TermNode::Tuple(std::move(args));
  return TermNode::Compound(
      std::string(store.SymbolName(store.TermFunctor(v.AsTermId()))),
      std::move(args));
}

void PrintLiteral(const ValueStore& store, const Literal& l,
                  std::ostream& out) {
  switch (l.kind) {
    case LiteralKind::kAtom: {
      if (l.negated) out << "not ";
      out << l.predicate;
      if (!l.args.empty()) {
        out << "(";
        for (size_t i = 0; i < l.args.size(); ++i) {
          if (i) out << ", ";
          PrintTerm(store, l.args[i], out, 0);
        }
        out << ")";
      }
      return;
    }
    case LiteralKind::kNotExists: {
      out << "not (";
      for (size_t i = 0; i < l.body.size(); ++i) {
        if (i) out << ", ";
        PrintLiteral(store, l.body[i], out);
      }
      out << ")";
      return;
    }
    case LiteralKind::kComparison: {
      PrintTerm(store, l.args[0], out, 0);
      out << " " << ComparisonOpName(l.op) << " ";
      PrintTerm(store, l.args[1], out, 0);
      return;
    }
    case LiteralKind::kChoice: {
      out << "choice(";
      PrintTerm(store, l.args[0], out, 0);
      out << ", ";
      PrintTerm(store, l.args[1], out, 0);
      out << ")";
      return;
    }
    case LiteralKind::kLeast:
    case LiteralKind::kMost: {
      out << (l.kind == LiteralKind::kLeast ? "least(" : "most(");
      PrintTerm(store, l.args[0], out, 0);
      // Omit the group when it is the empty tuple, matching the paper's
      // abbreviation least(C) for least(C, ()).
      const TermNode& group = l.args[1];
      if (!(group.is_tuple() && group.args.empty())) {
        out << ", ";
        PrintTerm(store, group, out, 0);
      }
      out << ")";
      return;
    }
    case LiteralKind::kNext: {
      out << "next(";
      PrintTerm(store, l.args[0], out, 0);
      out << ")";
      return;
    }
  }
}

}  // namespace

std::string TermToString(const ValueStore& store, const TermNode& t) {
  std::ostringstream out;
  PrintTerm(store, t, out, 0);
  return out.str();
}

std::string LiteralToString(const ValueStore& store, const Literal& l) {
  std::ostringstream out;
  PrintLiteral(store, l, out);
  return out.str();
}

std::string RuleToString(const ValueStore& store, const Rule& r) {
  std::ostringstream out;
  PrintLiteral(store, r.head, out);
  if (!r.body.empty()) {
    out << " <- ";
    for (size_t i = 0; i < r.body.size(); ++i) {
      if (i) out << ", ";
      PrintLiteral(store, r.body[i], out);
    }
  }
  out << ".";
  return out.str();
}

std::string ProgramToString(const ValueStore& store, const Program& p) {
  std::ostringstream out;
  for (const FactBatch& b : p.facts) {
    for (size_t i = 0; i < b.count; ++i) {
      std::vector<TermNode> args;
      for (uint32_t j = 0; j < b.arity; ++j) {
        args.push_back(GroundTerm(store, b.rows[i * b.arity + j]));
      }
      PrintLiteral(store, Literal::Atom(b.predicate, std::move(args)), out);
      out << ".\n";
    }
  }
  for (const Rule& r : p.rules) out << RuleToString(store, r) << "\n";
  return out.str();
}

}  // namespace gdlog
