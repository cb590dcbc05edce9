#include "analysis/greedy_transform.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"

namespace gdlog {

namespace {

/// Position of variable `name` among `args` (top-level only), or -1.
int VarPosition(const std::vector<TermNode>& args, const std::string& name) {
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].is_var() && args[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// True when the literal is `least(V, ())` / `most(V, ())` for variable V.
bool IsGlobalExtremum(const Literal& l, LiteralKind kind, std::string* var) {
  if (l.kind != kind) return false;
  if (!l.args[0].is_var()) return false;
  if (!l.args[1].is_tuple() || !l.args[1].args.empty()) return false;
  *var = l.args[0].name;
  return true;
}

struct PostCondition {
  size_t least_rule = 0;   // opt(C) <- reach(C), least(C).
  size_t most_rule = 0;    // reach(C) <- p(..., C, I), most(I).
  std::string pred;        // p
  uint32_t arity = 0;
  int cost_pos = -1;
  int stage_pos = -1;
};

/// Recognizes the A/B post-condition pair and the predicate it ranges
/// over.
std::optional<PostCondition> FindPostCondition(const Program& program) {
  for (size_t ai = 0; ai < program.rules.size(); ++ai) {
    const Rule& a = program.rules[ai];
    // A: opt(C) <- reach(C), least(C).
    if (a.body.size() != 2) continue;
    std::string cost_var;
    if (!a.body[0].is_positive_atom() || a.body[0].args.size() != 1) continue;
    if (!IsGlobalExtremum(a.body[1], LiteralKind::kLeast, &cost_var)) continue;
    if (!a.body[0].args[0].is_var() || a.body[0].args[0].name != cost_var) {
      continue;
    }
    const std::string& reach = a.body[0].predicate;
    // B: reach(C) <- p(..., C, I), most(I).
    for (size_t bi = 0; bi < program.rules.size(); ++bi) {
      const Rule& b = program.rules[bi];
      if (b.head.predicate != reach || b.head.args.size() != 1) continue;
      if (b.body.size() != 2) continue;
      if (!b.body[0].is_positive_atom()) continue;
      std::string stage_var;
      if (!IsGlobalExtremum(b.body[1], LiteralKind::kMost, &stage_var)) {
        continue;
      }
      if (!b.head.args[0].is_var()) continue;
      const std::string& total_var = b.head.args[0].name;
      PostCondition pc;
      pc.least_rule = ai;
      pc.most_rule = bi;
      pc.pred = b.body[0].predicate;
      pc.arity = static_cast<uint32_t>(b.body[0].args.size());
      pc.cost_pos = VarPosition(b.body[0].args, total_var);
      pc.stage_pos = VarPosition(b.body[0].args, stage_var);
      if (pc.cost_pos < 0 || pc.stage_pos < 0) continue;
      return pc;
    }
  }
  return std::nullopt;
}

}  // namespace

Result<GreedyTransformResult> PropagateExtremaIntoChoice(
    const Program& program, const GreedyTransformOptions& options) {
  if (!options.assume_matroid) {
    return Status::AnalysisError(
        "extrema propagation requires assume_matroid: deciding greedy-"
        "exactness automatically is the open problem the paper defers to "
        "matroid theory");
  }
  const auto pc = FindPostCondition(program);
  if (!pc) {
    return Status::AnalysisError(
        "no least-over-most post-condition pair found");
  }

  // N: the next rule for p consuming a generator atom at the cost
  // position, carrying choice goals and no extremum of its own.
  const Rule* next_rule = nullptr;
  size_t next_index = 0;
  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    const Rule& r = program.rules[ri];
    if (r.head.predicate != pc->pred || r.head.args.size() != pc->arity) {
      continue;
    }
    if (!r.has_next() || r.has_extrema()) continue;
    next_rule = &r;
    next_index = ri;
  }
  if (!next_rule) {
    return Status::AnalysisError("no next rule defines " + pc->pred);
  }
  const TermNode& head_cost = next_rule->head.args[pc->cost_pos];
  if (!head_cost.is_var()) {
    return Status::AnalysisError("head cost of " + pc->pred +
                                 " is not a variable");
  }
  // The generator atom: the positive body atom carrying the head's cost
  // variable.
  const Literal* gen_atom = nullptr;
  for (const Literal& l : next_rule->body) {
    if (!l.is_positive_atom()) continue;
    if (VarPosition(l.args, head_cost.name) >= 0) gen_atom = &l;
  }
  if (!gen_atom) {
    return Status::AnalysisError("no generator atom feeds the cost of " +
                                 pc->pred);
  }
  const int gen_cost_pos = VarPosition(gen_atom->args, head_cost.name);

  // G: the accumulator rule for the generator —
  //   gen(V..., C, J) <- p(..., C1, J), base(V..., C2), C = C1 + C2.
  const Rule* acc_rule = nullptr;
  size_t acc_index = 0;
  const Literal* base_atom = nullptr;
  std::string step_cost_var;
  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    const Rule& r = program.rules[ri];
    if (r.head.predicate != gen_atom->predicate ||
        r.head.args.size() != gen_atom->args.size()) {
      continue;
    }
    if (r.is_fact()) continue;
    const TermNode& acc_cost = r.head.args[gen_cost_pos];
    if (!acc_cost.is_var()) continue;
    // Find C = C1 + C2 (or the symmetric orientation).
    std::string c1, c2;
    for (const Literal& l : r.body) {
      if (l.kind != LiteralKind::kComparison || l.op != ComparisonOp::kEq) {
        continue;
      }
      const TermNode* var_side = nullptr;
      const TermNode* sum_side = nullptr;
      if (l.args[0].is_var() && l.args[0].name == acc_cost.name) {
        var_side = &l.args[0];
        sum_side = &l.args[1];
      } else if (l.args[1].is_var() && l.args[1].name == acc_cost.name) {
        var_side = &l.args[1];
        sum_side = &l.args[0];
      }
      if (!var_side) continue;
      if (!sum_side->is_compound() || sum_side->name != "+" ||
          sum_side->args.size() != 2 || !sum_side->args[0].is_var() ||
          !sum_side->args[1].is_var()) {
        continue;
      }
      c1 = sum_side->args[0].name;
      c2 = sum_side->args[1].name;
    }
    if (c1.empty()) continue;
    // One positive body atom carries the running total (c1 or c2) — the
    // recursive accumulator reference; the other carries the step cost.
    for (const Literal& l : r.body) {
      if (!l.is_positive_atom()) continue;
      const bool has_c1 = VarPosition(l.args, c1) >= 0;
      const bool has_c2 = VarPosition(l.args, c2) >= 0;
      if (has_c1 && !has_c2) {
        // running-total side; must be p or gen itself
        if (l.predicate != pc->pred && l.predicate != gen_atom->predicate) {
          continue;
        }
        step_cost_var = c2;
      } else if (has_c2 && !has_c1) {
        if (l.predicate != pc->pred && l.predicate != gen_atom->predicate) {
          base_atom = &l;  // tentative; validated below
          continue;
        }
        step_cost_var = c1;
      }
    }
    // Re-scan for the base atom now that the step cost variable is known.
    base_atom = nullptr;
    if (!step_cost_var.empty()) {
      for (const Literal& l : r.body) {
        if (!l.is_positive_atom()) continue;
        if (l.predicate == pc->pred || l.predicate == gen_atom->predicate) {
          continue;
        }
        if (VarPosition(l.args, step_cost_var) >= 0) base_atom = &l;
      }
    }
    if (base_atom) {
      acc_rule = &r;
      acc_index = ri;
      break;
    }
  }
  if (!acc_rule || !base_atom) {
    return Status::AnalysisError(
        "no accumulator rule (C = C1 + C2 over a base relation) defines " +
        gen_atom->predicate);
  }

  // --- Build the greedy rule -----------------------------------------------
  // Head of the greedy rule: p's head with the cost position replaced by
  // the step-cost variable and every other variable mapped through the
  // gen atom into the accumulator rule's variable space.
  const std::string stage_var =
      std::find_if(next_rule->body.begin(), next_rule->body.end(),
                   [](const Literal& l) {
                     return l.kind == LiteralKind::kNext;
                   })
          ->args[0]
          .name;

  auto map_var = [&](const std::string& n) -> Result<std::string> {
    if (n == stage_var) return n;
    const int k = VarPosition(gen_atom->args, n);
    if (k < 0) {
      return Status::AnalysisError("next-rule variable " + n +
                                   " is not positionally bound by " +
                                   gen_atom->predicate);
    }
    const TermNode& acc_head_arg = acc_rule->head.args[k];
    if (!acc_head_arg.is_var()) {
      return Status::AnalysisError("accumulator head position " +
                                   std::to_string(k) + " is not a variable");
    }
    return acc_head_arg.name;
  };

  Rule greedy;
  greedy.head.kind = LiteralKind::kAtom;
  greedy.head.predicate = pc->pred;
  for (size_t k = 0; k < next_rule->head.args.size(); ++k) {
    if (static_cast<int>(k) == pc->cost_pos) {
      greedy.head.args.push_back(TermNode::Var(step_cost_var));
    } else if (static_cast<int>(k) == pc->stage_pos) {
      greedy.head.args.push_back(TermNode::Var(stage_var));
    } else {
      const TermNode& t = next_rule->head.args[k];
      if (!t.is_var()) {
        return Status::AnalysisError("non-variable head argument in the "
                                     "next rule");
      }
      GDLOG_ASSIGN_OR_RETURN(std::string mapped, map_var(t.name));
      greedy.head.args.push_back(TermNode::Var(mapped));
    }
  }
  greedy.body.push_back(Literal::Next(TermNode::Var(stage_var)));
  greedy.body.push_back(*base_atom);
  greedy.body.push_back(Literal::Least(TermNode::Var(step_cost_var),
                                       TermNode::Var(stage_var)));
  for (const Literal& l : next_rule->body) {
    if (l.kind != LiteralKind::kChoice) continue;
    // Rebuild the choice terms with mapped variables (positional map
    // through the generator atom into the accumulator's variable space).
    auto rebuild = [&](const TermNode& t, auto&& self) -> Result<TermNode> {
      if (t.is_var()) {
        GDLOG_ASSIGN_OR_RETURN(std::string mapped, map_var(t.name));
        return TermNode::Var(mapped);
      }
      if (t.is_const()) return t;
      std::vector<TermNode> args;
      for (const TermNode& a : t.args) {
        GDLOG_ASSIGN_OR_RETURN(TermNode na, self(a, self));
        args.push_back(std::move(na));
      }
      return TermNode::Compound(t.name, std::move(args));
    };
    GDLOG_ASSIGN_OR_RETURN(TermNode left, rebuild(l.args[0], rebuild));
    GDLOG_ASSIGN_OR_RETURN(TermNode right, rebuild(l.args[1], rebuild));
    greedy.body.push_back(Literal::Choice(std::move(left), std::move(right)));
  }

  // --- Assemble the transformed program ------------------------------------
  GreedyTransformResult out;
  out.stage_predicate = pc->pred;
  out.stage_arity = pc->arity;
  out.cost_position = pc->cost_pos;
  out.transformed.facts = program.facts;
  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    if (ri == pc->least_rule || ri == pc->most_rule || ri == acc_index) {
      continue;  // post-conditions and accumulator are dissolved
    }
    if (ri == next_index) {
      out.transformed.rules.push_back(greedy);
      continue;
    }
    out.transformed.rules.push_back(program.rules[ri]);
  }
  out.summary =
      "propagated least into the next rule of " + pc->pred +
      ": the accumulator " + gen_atom->predicate +
      " was dissolved; per-stage costs of " + pc->pred +
      " now sum to the optimum (greedy-exact under the asserted matroid)";
  return out;
}

}  // namespace gdlog
