#include "ast/ast.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"

namespace gdlog {

std::string SourceLoc::ToString() const {
  if (!valid()) return "unknown location";
  return "line " + std::to_string(line) + ", column " + std::to_string(column);
}

bool IsAnonymousVariable(std::string_view name) {
  return name.size() > kAnonymousVarPrefix.size() &&
         name.substr(0, kAnonymousVarPrefix.size()) == kAnonymousVarPrefix &&
         std::all_of(name.begin() + kAnonymousVarPrefix.size(), name.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

bool IsArithmeticFunctor(const std::string& name) {
  return name == "+" || name == "-" || name == "*" || name == "/" ||
         name == "mod" || name == "min" || name == "max";
}

bool IsArithmeticTerm(const TermNode& t) {
  return t.is_compound() && t.args.size() == 2 && IsArithmeticFunctor(t.name);
}

void CollectVariables(const TermNode& t, std::vector<std::string>* out) {
  switch (t.kind) {
    case TermKind::kVariable:
      out->push_back(t.name);
      break;
    case TermKind::kConstant:
      break;
    case TermKind::kCompound:
      for (const TermNode& a : t.args) CollectVariables(a, out);
      break;
  }
}

std::vector<std::string> DistinctVariables(const TermNode& t) {
  std::vector<std::string> all;
  CollectVariables(t, &all);
  std::vector<std::string> out;
  for (std::string& n : all) {
    if (std::find(out.begin(), out.end(), n) == out.end()) {
      out.push_back(std::move(n));
    }
  }
  return out;
}

bool TermEquals(const TermNode& a, const TermNode& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case TermKind::kVariable:
      return a.name == b.name;
    case TermKind::kConstant:
      return a.constant == b.constant;
    case TermKind::kCompound: {
      if (a.name != b.name || a.args.size() != b.args.size()) return false;
      for (size_t i = 0; i < a.args.size(); ++i) {
        if (!TermEquals(a.args[i], b.args[i])) return false;
      }
      return true;
    }
  }
  return false;
}

std::string_view ComparisonOpName(ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kEq:
      return "=";
    case ComparisonOp::kNe:
      return "!=";
    case ComparisonOp::kLt:
      return "<";
    case ComparisonOp::kLe:
      return "<=";
    case ComparisonOp::kGt:
      return ">";
    case ComparisonOp::kGe:
      return ">=";
  }
  return "?";
}

ComparisonOp FlipComparison(ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kEq:
      return ComparisonOp::kEq;
    case ComparisonOp::kNe:
      return ComparisonOp::kNe;
    case ComparisonOp::kLt:
      return ComparisonOp::kGt;
    case ComparisonOp::kLe:
      return ComparisonOp::kGe;
    case ComparisonOp::kGt:
      return ComparisonOp::kLt;
    case ComparisonOp::kGe:
      return ComparisonOp::kLe;
  }
  return op;
}

void CollectLiteralVariables(const Literal& lit,
                             std::vector<std::string>* out) {
  for (const TermNode& t : lit.args) CollectVariables(t, out);
  for (const Literal& inner : lit.body) CollectLiteralVariables(inner, out);
}

bool Rule::has_next() const {
  return std::any_of(body.begin(), body.end(), [](const Literal& l) {
    return l.kind == LiteralKind::kNext;
  });
}

bool Rule::has_choice() const {
  return std::any_of(body.begin(), body.end(), [](const Literal& l) {
    return l.kind == LiteralKind::kChoice;
  });
}

bool Rule::has_extrema() const {
  return std::any_of(body.begin(), body.end(), [](const Literal& l) {
    return l.kind == LiteralKind::kLeast || l.kind == LiteralKind::kMost;
  });
}

void Program::AddFact(std::string_view predicate, std::span<const Value> row,
                      uint32_t clause, SourceLoc loc, size_t* batch_hint) {
  const auto arity = static_cast<uint32_t>(row.size());
  auto matches = [&](size_t b) {
    return b < facts.size() && facts[b].arity == arity &&
           facts[b].predicate == predicate;
  };
  size_t b = *batch_hint;
  if (!matches(b)) {
    b = 0;
    while (b < facts.size() && !matches(b)) ++b;
    if (b == facts.size()) {
      FactBatch& nb = facts.emplace_back();
      nb.predicate = std::string(predicate);
      nb.arity = arity;
      nb.first_clause = clause;
      nb.loc = loc;
    }
    *batch_hint = b;
  }
  FactBatch& batch = facts[b];
  batch.rows.insert(batch.rows.end(), row.begin(), row.end());
  ++batch.count;
}

bool Program::AddGroundFact(const Rule& rule, uint32_t clause,
                            ValueStore* store, size_t* batch_hint) {
  if (!rule.is_fact()) return false;
  std::vector<Value> row;
  row.reserve(rule.head.args.size());
  for (const TermNode& t : rule.head.args) {
    Result<Value> v = GroundValue(t, store);
    if (!v.ok()) return false;
    row.push_back(*v);
  }
  AddFact(rule.head.predicate, row, clause, rule.loc, batch_hint);
  return true;
}

void Program::SplitGroundFacts(ValueStore* store) {
  if (std::none_of(rules.begin(), rules.end(),
                   [](const Rule& r) { return r.is_fact(); })) {
    return;
  }
  std::vector<Rule> kept;
  std::vector<uint32_t> kept_clauses;
  size_t hint = 0;
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    if (AddGroundFact(rules[ri], ClauseOf(ri), store, &hint)) continue;
    kept_clauses.push_back(ClauseOf(ri));
    kept.push_back(std::move(rules[ri]));
  }
  rules = std::move(kept);
  rule_clauses = std::move(kept_clauses);
}

Result<Value> GroundValue(const TermNode& t, ValueStore* store) {
  switch (t.kind) {
    case TermKind::kConstant:
      return t.constant;
    case TermKind::kVariable:
      return Status::InvalidArgument("fact contains variable " + t.name);
    case TermKind::kCompound: {
      std::vector<Value> args;
      for (const TermNode& a : t.args) {
        GDLOG_ASSIGN_OR_RETURN(Value v, GroundValue(a, store));
        args.push_back(v);
      }
      if (t.is_tuple()) return store->MakeTuple(args);
      return store->MakeTerm(t.name, args);
    }
  }
  return Status::Internal("unreachable");
}

std::vector<Program::PredicateRef> Program::AllPredicates() const {
  std::vector<PredicateRef> out;
  auto add = [&out](const std::string& name, uint32_t arity) {
    PredicateRef ref{name, arity};
    if (std::find(out.begin(), out.end(), ref) == out.end()) {
      out.push_back(std::move(ref));
    }
  };
  // Recursion over literals to reach atoms under NotExists.
  std::function<void(const Literal&)> visit = [&](const Literal& l) {
    if (l.kind == LiteralKind::kAtom) {
      add(l.predicate, static_cast<uint32_t>(l.args.size()));
    }
    for (const Literal& inner : l.body) visit(inner);
  };
  for (const Rule& r : rules) {
    visit(r.head);
    for (const Literal& l : r.body) visit(l);
  }
  for (const FactBatch& b : facts) add(b.predicate, b.arity);
  return out;
}

}  // namespace gdlog
