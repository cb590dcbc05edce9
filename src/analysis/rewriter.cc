#include "analysis/rewriter.h"

#include <algorithm>

#include "analysis/safety.h"
#include "common/logging.h"

namespace gdlog {

TermNode VariableRenamer::Rename(const TermNode& t) {
  switch (t.kind) {
    case TermKind::kVariable: {
      auto it = map_.find(t.name);
      if (it == map_.end()) {
        it = map_.emplace(t.name, prefix_ + t.name).first;
      }
      return TermNode::Var(it->second);
    }
    case TermKind::kConstant:
      return t;
    case TermKind::kCompound: {
      std::vector<TermNode> args;
      args.reserve(t.args.size());
      for (const TermNode& a : t.args) args.push_back(Rename(a));
      return TermNode::Compound(t.name, std::move(args));
    }
  }
  return t;
}

Literal VariableRenamer::Rename(const Literal& l) {
  Literal out = l;
  out.args.clear();
  for (const TermNode& a : l.args) out.args.push_back(Rename(a));
  out.body.clear();
  for (const Literal& inner : l.body) out.body.push_back(Rename(inner));
  return out;
}

namespace {

/// Distinct variable names in first-occurrence order.
std::vector<std::string> DistinctVars(const std::vector<std::string>& names) {
  std::vector<std::string> out;
  for (const std::string& n : names) {
    if (std::find(out.begin(), out.end(), n) == out.end()) out.push_back(n);
  }
  return out;
}

}  // namespace

Program ExpandNext(const Program& program) {
  Program out;
  out.rules.reserve(program.rules.size());
  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    const Rule& r = program.rules[ri];
    const auto next_it = std::find_if(
        r.body.begin(), r.body.end(),
        [](const Literal& l) { return l.kind == LiteralKind::kNext; });
    if (next_it == r.body.end()) {
      out.rules.push_back(r);
      continue;
    }
    // The stage variable and its position in the head, unique by the
    // shape AnalyzeStages checks (RuleStructureDiagnostics).
    const std::string& stage_var = next_it->args[0].name;
    const auto is_stage = [&](const TermNode& t) {
      return t.is_var() && t.name == stage_var;
    };
    GDLOG_CHECK_EQ(
        std::count_if(r.head.args.begin(), r.head.args.end(), is_stage), 1);
    const auto stage_pos = static_cast<int>(
        std::find_if(r.head.args.begin(), r.head.args.end(), is_stage) -
        r.head.args.begin());
    // Build: p(_..., I1), I = I1 + 1, choice(I, W), choice(W, I).
    // Fresh variables carry the rule's clause number, as --rewrite shows.
    Rule nr;
    nr.head = r.head;
    const std::string clause = std::to_string(program.ClauseOf(ri));
    const std::string prev_var = "S$" + clause;
    std::vector<TermNode> prev_args;
    std::vector<TermNode> w_elems;
    for (size_t j = 0; j < r.head.args.size(); ++j) {
      if (static_cast<int>(j) == stage_pos) {
        prev_args.push_back(TermNode::Var(prev_var));
      } else {
        prev_args.push_back(
            TermNode::Var("A$" + clause + "_" + std::to_string(j)));
        w_elems.push_back(r.head.args[j]);
      }
    }
    TermNode w = w_elems.size() == 1 ? w_elems[0]
                                     : TermNode::Tuple(std::move(w_elems));
    std::vector<TermNode> plus_args;
    plus_args.push_back(TermNode::Var(prev_var));
    plus_args.push_back(TermNode::Const(Value::Int(1)));

    for (const Literal& l : r.body) {
      if (l.kind != LiteralKind::kNext) {
        nr.body.push_back(l);
        continue;
      }
      GDLOG_CHECK(&l == &*next_it) << "a rule with two next goals";
      nr.body.push_back(Literal::Atom(r.head.predicate, prev_args));
      nr.body.push_back(Literal::Comparison(
          ComparisonOp::kEq, TermNode::Var(stage_var),
          TermNode::Compound("+", plus_args)));
      nr.body.push_back(Literal::Choice(TermNode::Var(stage_var), w));
      nr.body.push_back(Literal::Choice(w, TermNode::Var(stage_var)));
    }
    out.rules.push_back(std::move(nr));
  }
  return out;
}

Program EraseChoice(const Program& program) {
  Program out;
  out.rules.reserve(program.rules.size());
  for (const Rule& r : program.rules) {
    Rule nr;
    nr.head = r.head;
    for (const Literal& l : r.body) {
      if (l.kind != LiteralKind::kChoice) nr.body.push_back(l);
    }
    out.rules.push_back(std::move(nr));
  }
  return out;
}

Program RewriteChoice(const Program& program, ChoiceRewriteInfo* info) {
  Program out;
  uint32_t counter = 0;
  for (const Rule& r : program.rules) {
    if (!r.has_choice()) {
      out.rules.push_back(r);
      continue;
    }
    const uint32_t i = counter++;
    const std::string chosen_name = "chosen$" + std::to_string(i);
    const std::string diff_name = "diffChoice$" + std::to_string(i);

    // V: distinct variables across all choice goals, first-occurrence
    // order — the argument list of chosen$i / diffChoice$i.
    std::vector<std::string> all_vars;
    std::vector<const Literal*> choice_goals;
    for (const Literal& l : r.body) {
      if (l.kind == LiteralKind::kChoice) {
        choice_goals.push_back(&l);
        CollectVariables(l.args[0], &all_vars);
        CollectVariables(l.args[1], &all_vars);
      }
    }
    const std::vector<std::string> v = DistinctVars(all_vars);
    std::vector<TermNode> v_terms;
    for (const std::string& n : v) v_terms.push_back(TermNode::Var(n));

    std::vector<Literal> base_body;
    for (const Literal& l : r.body) {
      if (l.kind != LiteralKind::kChoice) base_body.push_back(l);
    }

    // Original rule with choice goals replaced by the chosen$i atom.
    Rule replaced;
    replaced.head = r.head;
    replaced.body = base_body;
    replaced.body.push_back(Literal::Atom(chosen_name, v_terms));
    out.rules.push_back(std::move(replaced));

    // chosen$i(V) <- base_body, not diffChoice$i(V).
    Rule chosen_rule;
    chosen_rule.head = Literal::Atom(chosen_name, v_terms);
    chosen_rule.body = base_body;
    chosen_rule.body.push_back(
        Literal::Atom(diff_name, v_terms, /*neg=*/true));
    out.rules.push_back(std::move(chosen_rule));

    ChoiceRewriteInfo::Entry entry;
    entry.chosen_name = chosen_name;
    entry.diff_name = diff_name;
    entry.arity = static_cast<uint32_t>(v.size());

    // diffChoice$i(V) <- chosen$i(V'), R != R'   (V' shares vars(L)).
    for (const Literal* cg : choice_goals) {
      const TermNode& left = cg->args[0];
      const TermNode& right = cg->args[1];
      VariableRenamer renamer("D$" + std::to_string(i) + "_");
      for (const std::string& n : DistinctVariables(left)) renamer.Share(n);
      std::vector<TermNode> v_renamed;
      for (const std::string& n : v) {
        v_renamed.push_back(renamer.Rename(TermNode::Var(n)));
      }
      Rule diff_rule;
      diff_rule.head = Literal::Atom(diff_name, v_terms);
      diff_rule.body.push_back(Literal::Atom(chosen_name, v_renamed));
      diff_rule.body.push_back(Literal::Comparison(ComparisonOp::kNe, right,
                                                   renamer.Rename(right)));
      out.rules.push_back(std::move(diff_rule));

      ChoiceGoalSig sig;
      for (const std::string& n : DistinctVariables(left)) {
        const auto it = std::find(v.begin(), v.end(), n);
        sig.left_positions.push_back(
            static_cast<uint32_t>(it - v.begin()));
      }
      for (const std::string& n : DistinctVariables(right)) {
        const auto it = std::find(v.begin(), v.end(), n);
        sig.right_positions.push_back(
            static_cast<uint32_t>(it - v.begin()));
      }
      entry.goals.push_back(std::move(sig));
    }
    if (info) info->entries.push_back(std::move(entry));
  }
  return out;
}

Program RewriteExtrema(const Program& program) {
  const auto is_extremum = [](const Literal& l) {
    return l.kind == LiteralKind::kLeast || l.kind == LiteralKind::kMost;
  };
  Program out;
  for (const Rule& r : program.rules) {
    if (!r.has_extrema()) {
      out.rules.push_back(r);
      continue;
    }
    // One extremum whose cost is a variable outside its grouping, by the
    // shape AnalyzeStages checks (RuleStructureDiagnostics).
    GDLOG_CHECK_EQ(std::count_if(r.body.begin(), r.body.end(), is_extremum),
                   1);
    const auto ext_it = std::find_if(r.body.begin(), r.body.end(), is_extremum);
    const bool is_least = ext_it->kind == LiteralKind::kLeast;
    const TermNode& cost = ext_it->args[0];
    const std::vector<std::string> group_vars =
        DistinctVariables(ext_it->args[1]);
    GDLOG_CHECK(cost.is_var() &&
                std::find(group_vars.begin(), group_vars.end(), cost.name) ==
                    group_vars.end())
        << "malformed extremum cost in a rule for " << r.head.predicate;

    Rule nr;
    nr.head = r.head;
    std::vector<Literal> rest;
    for (const Literal& l : r.body) {
      if (&l != &*ext_it) rest.push_back(l);
    }
    nr.body = rest;

    // NotExists copy: rest-of-body renamed apart except group variables,
    // plus C' < C (least) or C' > C (most).
    VariableRenamer renamer("E$");
    for (const std::string& n : group_vars) renamer.Share(n);
    std::vector<Literal> copy;
    for (const Literal& l : rest) copy.push_back(renamer.Rename(l));
    copy.push_back(Literal::Comparison(
        is_least ? ComparisonOp::kLt : ComparisonOp::kGt,
        renamer.Rename(cost), cost));
    nr.body.push_back(Literal::NotExists(std::move(copy)));
    out.rules.push_back(std::move(nr));
  }
  return out;
}

namespace {

/// The stable-model checker tests a negated atom by membership in a
/// fixed model, which needs a ground tuple. A negated atom with a local
/// variable (`not e(_, X)`) is existentially quantified instead, so it
/// becomes the negated conjunction `not (e(_, X))`, which
/// NormalizeNotExists turns into an aux$ goal. `body` is `rule`'s body
/// or a conjunction nested in it.
void QuantifyLocalNegations(const Rule& rule, std::vector<Literal>* body) {
  for (Literal& lit : *body) {
    if (lit.kind == LiteralKind::kNotExists) {
      QuantifyLocalNegations(rule, &lit.body);
      continue;
    }
    if (!lit.is_negated_atom()) continue;
    std::vector<std::string> vars;
    CollectLiteralVariables(lit, &vars);
    if (std::none_of(vars.begin(), vars.end(), [&](const std::string& v) {
          return IsLocalVariable(v, lit, rule);
        })) {
      continue;
    }
    Literal atom = std::move(lit);
    atom.negated = false;
    lit = Literal::NotExists({std::move(atom)});
  }
}

void NormalizeRule(const Rule& rule, uint32_t* aux_counter,
                   std::vector<Rule>* out) {
  Rule nr;
  nr.head = rule.head;
  // Variables appearing outside each NotExists (head + sibling literals).
  for (size_t li = 0; li < rule.body.size(); ++li) {
    const Literal& l = rule.body[li];
    if (l.kind != LiteralKind::kNotExists) {
      nr.body.push_back(l);
      continue;
    }
    std::vector<std::string> outside;
    CollectLiteralVariables(rule.head, &outside);
    for (size_t lj = 0; lj < rule.body.size(); ++lj) {
      if (lj != li) CollectLiteralVariables(rule.body[lj], &outside);
    }
    std::vector<std::string> inside;
    for (const Literal& inner : l.body) {
      CollectLiteralVariables(inner, &inside);
    }
    std::vector<std::string> shared;
    for (const std::string& n : DistinctVars(inside)) {
      if (std::find(outside.begin(), outside.end(), n) != outside.end()) {
        shared.push_back(n);
      }
    }
    const std::string aux_name = "aux$" + std::to_string((*aux_counter)++);
    std::vector<TermNode> shared_terms;
    for (const std::string& n : shared) shared_terms.push_back(TermNode::Var(n));

    Rule aux_rule;
    aux_rule.head = Literal::Atom(aux_name, shared_terms);
    aux_rule.body = l.body;
    // Recurse: the aux body may itself contain NotExists.
    NormalizeRule(aux_rule, aux_counter, out);

    nr.body.push_back(Literal::Atom(aux_name, shared_terms, /*neg=*/true));
  }
  out->push_back(std::move(nr));
}

}  // namespace

Program NormalizeNotExists(const Program& program) {
  Program out;
  uint32_t aux_counter = 0;
  for (const Rule& r : program.rules) {
    NormalizeRule(r, &aux_counter, &out.rules);
  }
  return out;
}

Program FullSemanticExpansion(const Program& program,
                              ChoiceRewriteInfo* info) {
  Program p = RewriteExtrema(RewriteChoice(ExpandNext(program), info));
  for (Rule& r : p.rules) QuantifyLocalNegations(r, &r.body);
  return NormalizeNotExists(p);
}

}  // namespace gdlog
