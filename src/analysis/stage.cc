#include "analysis/stage.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "analysis/diagnostics.h"
#include "analysis/rewriter.h"
#include "common/logging.h"

namespace gdlog {

std::string_view CliqueClassName(CliqueClass c) {
  switch (c) {
    case CliqueClass::kHorn:
      return "Horn";
    case CliqueClass::kStratified:
      return "Stratified";
    case CliqueClass::kStageStratified:
      return "StageStratified";
    case CliqueClass::kRelaxedStage:
      return "RelaxedStage";
    case CliqueClass::kRejected:
      return "Rejected";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------------
// Order constraints: proves var/const orderings within one rule instance.
// ---------------------------------------------------------------------------

/// A tiny difference-order solver. Nodes are rule variables and integer
/// constants; an edge u -> v carries strictness (u < v) or not (u <= v).
/// Transitive closure makes a path strict if any edge on it is strict.
class OrderConstraints {
 public:
  void AddLe(const std::string& u, const std::string& v, bool strict) {
    const int a = NodeOf(u);
    const int b = NodeOf(v);
    pending_.push_back({a, b, strict});
    closed_ = false;
  }

  void AddConstant(const std::string& key, int64_t value) {
    const int a = NodeOf(key);
    const_value_[a] = value;
    closed_ = false;
  }

  /// True iff u <= v (strict=false) or u < v (strict=true) is provable.
  bool Proves(const std::string& u, const std::string& v, bool strict) {
    if (u == v) return !strict;
    Close();
    auto iu = index_.find(u);
    auto iv = index_.find(v);
    if (iu == index_.end() || iv == index_.end()) return false;
    const int r = rel_[iu->second * n_ + iv->second];
    return strict ? r == kStrict : r != kNone;
  }

 private:
  static constexpr int kNone = 0;
  static constexpr int kLe = 1;
  static constexpr int kStrict = 2;

  int NodeOf(const std::string& key) {
    auto it = index_.find(key);
    if (it != index_.end()) return it->second;
    const int id = static_cast<int>(index_.size());
    index_.emplace(key, id);
    return id;
  }

  void Close() {
    if (closed_) return;
    n_ = static_cast<int>(index_.size());
    rel_.assign(static_cast<size_t>(n_) * n_, kNone);
    auto set_rel = [&](int a, int b, int r) {
      int& cur = rel_[static_cast<size_t>(a) * n_ + b];
      if (r > cur) cur = r;
    };
    for (const auto& e : pending_) {
      set_rel(e.a, e.b, e.strict ? kStrict : kLe);
    }
    // Known integer constants order each other.
    for (const auto& [a, va] : const_value_) {
      for (const auto& [b, vb] : const_value_) {
        if (va < vb) set_rel(a, b, kStrict);
        if (va == vb && a != b) {
          set_rel(a, b, kLe);
          set_rel(b, a, kLe);
        }
      }
    }
    // Floyd-Warshall-style closure; strictness is the max over the path's
    // weakest-link composition: le∘le = le, anything∘strict = strict.
    for (int k = 0; k < n_; ++k) {
      for (int i = 0; i < n_; ++i) {
        const int rik = rel_[static_cast<size_t>(i) * n_ + k];
        if (rik == kNone) continue;
        for (int j = 0; j < n_; ++j) {
          const int rkj = rel_[static_cast<size_t>(k) * n_ + j];
          if (rkj == kNone) continue;
          const int composed = (rik == kStrict || rkj == kStrict) ? kStrict : kLe;
          set_rel(i, j, composed);
        }
      }
    }
    closed_ = true;
  }

  struct Edge {
    int a, b;
    bool strict;
  };

  std::unordered_map<std::string, int> index_;
  std::unordered_map<int, int64_t> const_value_;
  std::vector<Edge> pending_;
  std::vector<int> rel_;
  int n_ = 0;
  bool closed_ = true;
};

/// The order-constraint node of integer constant `v`: "#<v>".
std::string IntKey(int64_t v) {
  std::string key = std::to_string(v);
  key.insert(key.begin(), '#');
  return key;
}

/// Key for a term usable as an order-constraint node: a variable's name,
/// or "#<int>" for integer constants. Returns false for anything else.
bool TermKey(const TermNode& t, std::string* key, OrderConstraints* oc) {
  if (t.is_var()) {
    *key = t.name;
    return true;
  }
  if (t.is_const() && t.constant.is_int()) {
    *key = IntKey(t.constant.AsInt());
    if (oc) oc->AddConstant(*key, t.constant.AsInt());
    return true;
  }
  return false;
}

/// Harvests ordering edges from one comparison literal.
void AddComparisonEdges(const Literal& lit, OrderConstraints* oc) {
  GDLOG_CHECK(lit.kind == LiteralKind::kComparison);
  const TermNode& lhs = lit.args[0];
  const TermNode& rhs = lit.args[1];
  std::string lk, rk;
  const bool lhs_ok = TermKey(lhs, &lk, oc);
  const bool rhs_ok = TermKey(rhs, &rk, oc);
  switch (lit.op) {
    case ComparisonOp::kLt:
      if (lhs_ok && rhs_ok) oc->AddLe(lk, rk, /*strict=*/true);
      return;
    case ComparisonOp::kLe:
      if (lhs_ok && rhs_ok) oc->AddLe(lk, rk, /*strict=*/false);
      return;
    case ComparisonOp::kGt:
      if (lhs_ok && rhs_ok) oc->AddLe(rk, lk, /*strict=*/true);
      return;
    case ComparisonOp::kGe:
      if (lhs_ok && rhs_ok) oc->AddLe(rk, lk, /*strict=*/false);
      return;
    case ComparisonOp::kNe:
      return;
    case ComparisonOp::kEq:
      break;
  }
  // Equality: plain t1 = t2, or stage arithmetic V = W + c, V = max/min(..).
  auto handle_eq_arith = [&](const TermNode& var_side,
                             const TermNode& expr_side) {
    std::string vk;
    if (!TermKey(var_side, &vk, oc)) return;
    if (expr_side.is_compound() && expr_side.args.size() == 2 &&
        (expr_side.name == "+" || expr_side.name == "-")) {
      const TermNode& a = expr_side.args[0];
      const TermNode& b = expr_side.args[1];
      // V = A + c  or  V = A - c with integer constant c.
      if (b.is_const() && b.constant.is_int()) {
        int64_t c = b.constant.AsInt();
        if (expr_side.name == "-") c = -c;
        std::string ak;
        if (TermKey(a, &ak, oc)) {
          if (c > 0) {
            oc->AddLe(ak, vk, /*strict=*/true);
          } else if (c == 0) {
            oc->AddLe(ak, vk, false);
            oc->AddLe(vk, ak, false);
          } else {
            oc->AddLe(vk, ak, /*strict=*/true);
          }
        }
      }
      // V = c + A (addition only).
      if (expr_side.name == "+" && a.is_const() && a.constant.is_int()) {
        const int64_t c = a.constant.AsInt();
        std::string bk;
        if (TermKey(b, &bk, oc)) {
          if (c > 0) {
            oc->AddLe(bk, vk, true);
          } else if (c == 0) {
            oc->AddLe(bk, vk, false);
            oc->AddLe(vk, bk, false);
          } else {
            oc->AddLe(vk, bk, true);
          }
        }
      }
      return;
    }
    if (expr_side.is_compound() &&
        (expr_side.name == "max" || expr_side.name == "min")) {
      for (const TermNode& a : expr_side.args) {
        std::string ak;
        if (!TermKey(a, &ak, oc)) continue;
        if (expr_side.name == "max") {
          oc->AddLe(ak, vk, false);  // each arg <= max
        } else {
          oc->AddLe(vk, ak, false);  // min <= each arg
        }
      }
      return;
    }
  };
  if (lhs_ok && rhs_ok) {
    oc->AddLe(lk, rk, false);
    oc->AddLe(rk, lk, false);
    return;
  }
  handle_eq_arith(lhs, rhs);
  handle_eq_arith(rhs, lhs);
}

/// All integer constants mentioned anywhere become order nodes, so
/// constant stage arguments (e.g. the 0 in exit rules) participate.
void RegisterConstants(const TermNode& t, OrderConstraints* oc) {
  if (t.is_const() && t.constant.is_int()) {
    oc->AddConstant(IntKey(t.constant.AsInt()), t.constant.AsInt());
  }
  for (const TermNode& a : t.args) RegisterConstants(a, oc);
}

// ---------------------------------------------------------------------------
// Stage-variable inference within one rule.
// ---------------------------------------------------------------------------

/// True when all variables of `t` are in `stage_vars` and all functors
/// are arithmetic — i.e. the term's value is a function of stage values.
bool IsStageExpr(const TermNode& t,
                 const std::unordered_set<std::string>& stage_vars) {
  switch (t.kind) {
    case TermKind::kVariable:
      return stage_vars.count(t.name) > 0;
    case TermKind::kConstant:
      return t.constant.is_int();
    case TermKind::kCompound:
      if (!IsArithmeticFunctor(t.name)) return false;
      for (const TermNode& a : t.args) {
        if (!IsStageExpr(a, stage_vars)) return false;
      }
      return true;
  }
  return false;
}

/// Computes the set of stage variables of rule `r` given the current
/// per-predicate stage positions (restricted to predicates of clique
/// `scc`). Only top-level positive atoms bind variables.
std::unordered_set<std::string> RuleStageVars(
    const Rule& r, const DependencyGraph& graph, uint32_t scc,
    const std::vector<int>& stage_arg) {
  std::unordered_set<std::string> sv;
  // next(I) binds I as a stage variable directly.
  for (const Literal& l : r.body) {
    if (l.kind == LiteralKind::kNext) sv.insert(l.args[0].name);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Literal& l : r.body) {
      if (l.is_positive_atom()) {
        const PredIndex p = graph.Lookup(
            l.predicate, static_cast<uint32_t>(l.args.size()));
        if (p == kNoPred || graph.scc_of(p) != scc) continue;
        const int pos = stage_arg[p];
        if (pos < 0 || pos >= static_cast<int>(l.args.size())) continue;
        const TermNode& t = l.args[pos];
        if (t.is_var() && sv.insert(t.name).second) changed = true;
      } else if (l.kind == LiteralKind::kComparison &&
                 l.op == ComparisonOp::kEq) {
        const TermNode& lhs = l.args[0];
        const TermNode& rhs = l.args[1];
        if (lhs.is_var() && IsStageExpr(rhs, sv) && sv.insert(lhs.name).second) {
          changed = true;
        }
        if (rhs.is_var() && IsStageExpr(lhs, sv) && sv.insert(rhs.name).second) {
          changed = true;
        }
      }
    }
  }
  return sv;
}

// ---------------------------------------------------------------------------
// Stage-occurrence collection on the expanded rule.
// ---------------------------------------------------------------------------

struct StageOccurrence {
  std::string key;    // order-constraint node key
  bool under_negation;
  bool keyable;       // false when the stage term is not a var/int
  std::string where;  // diagnostic text
};

void CollectOccurrences(const std::vector<Literal>& body,
                        const DependencyGraph& graph, uint32_t scc,
                        const std::vector<int>& stage_arg, bool under_negation,
                        OrderConstraints* oc,
                        std::vector<StageOccurrence>* out) {
  for (const Literal& l : body) {
    switch (l.kind) {
      case LiteralKind::kAtom: {
        const PredIndex p = graph.Lookup(
            l.predicate, static_cast<uint32_t>(l.args.size()));
        for (const TermNode& a : l.args) RegisterConstants(a, oc);
        if (p == kNoPred || graph.scc_of(p) != scc) break;
        const int pos = stage_arg[p];
        if (pos < 0 || pos >= static_cast<int>(l.args.size())) break;
        StageOccurrence occ;
        occ.under_negation = under_negation || l.negated;
        occ.keyable = TermKey(l.args[pos], &occ.key, oc);
        occ.where = l.predicate;
        out->push_back(std::move(occ));
        break;
      }
      case LiteralKind::kComparison:
        AddComparisonEdges(l, oc);
        for (const TermNode& a : l.args) RegisterConstants(a, oc);
        break;
      case LiteralKind::kNotExists:
        // Constraints inside the negated conjunction hold for the negated
        // instance, so they may be used when discharging its occurrences.
        CollectOccurrences(l.body, graph, scc, stage_arg,
                           /*under_negation=*/true, oc, out);
        break;
      default:
        break;
    }
  }
}

/// Infers the stage argument of every predicate of stage clique `s`
/// into `a->stage_arg`: a next rule's stage variable fixes its head's,
/// and flat rules propagate stage variables until nothing changes. A
/// predicate given two positions (GD106), or a rule placing stage
/// variables at two head positions (GD107), rejects the clique.
void InferStagePositions(const Program& program, uint32_t s,
                         StageAnalysis* a) {
  const DependencyGraph& graph = *a->graph;
  CliqueStageInfo& cl = a->cliques[s];
  const auto reject = [&cl](std::string_view code, std::string why) {
    cl.cls = CliqueClass::kRejected;
    cl.code = std::string(code);
    cl.diagnostic = std::move(why);
  };
  const auto conflict = [&](PredIndex head, int pos) {
    reject(diag::kConflictingStagePos,
           "predicate " + graph.name(head) + " has conflicting stage "
           "argument positions " + std::to_string(a->stage_arg[head]) +
           " and " + std::to_string(pos));
  };
  // Seed from next rules: the stage variable's position in the head.
  for (uint32_t ri : cl.rules) {
    if (a->rule_info[ri].kind != RuleKind::kNext) continue;
    const Rule& r = program.rules[ri];
    const std::string& sv = a->rule_info[ri].stage_var;
    int pos = -1;
    for (size_t j = 0; j < r.head.args.size(); ++j) {
      if (r.head.args[j].is_var() && r.head.args[j].name == sv) {
        pos = static_cast<int>(j);  // unique: RuleStructureDiagnostics
      }
    }
    GDLOG_CHECK_GE(pos, 0);
    const PredIndex head = graph.Lookup(
        r.head.predicate, static_cast<uint32_t>(r.head.args.size()));
    if (a->stage_arg[head] >= 0 && a->stage_arg[head] != pos) {
      return conflict(head, pos);
    }
    a->stage_arg[head] = pos;
  }
  // Propagate through flat rules until stable.
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t ri : cl.rules) {
      if (a->rule_info[ri].kind == RuleKind::kNext) continue;
      const Rule& r = program.rules[ri];
      const auto sv = RuleStageVars(r, graph, s, a->stage_arg);
      if (sv.empty()) continue;
      const PredIndex head = graph.Lookup(
          r.head.predicate, static_cast<uint32_t>(r.head.args.size()));
      int pos = -1;
      for (size_t j = 0; j < r.head.args.size(); ++j) {
        const TermNode& t = r.head.args[j];
        if (!t.is_var() || sv.count(t.name) == 0) continue;
        if (pos >= 0) {
          return reject(diag::kTwoHeadStagePos,
                        "rule for " + graph.name(head) +
                            " places stage variables at two head "
                            "positions (" + std::to_string(pos) + " and " +
                            std::to_string(j) + ")");
        }
        pos = static_cast<int>(j);
      }
      if (pos < 0 || a->stage_arg[head] == pos) continue;
      if (a->stage_arg[head] >= 0) return conflict(head, pos);
      a->stage_arg[head] = pos;
      changed = true;
    }
  }
}

std::string PredKey(const DependencyGraph& g, PredIndex p) {
  return g.name(p) + "/" + std::to_string(g.arity(p));
}

/// "dependency cycle: p -> cand ~> blocked -> p" over the expanded
/// program's dependency graph; `~>` marks an edge under negation.
std::string FormatCycle(const DependencyGraph& g, uint32_t scc) {
  const std::vector<uint32_t> cycle = g.CycleWithin(scc);
  if (cycle.empty()) return "";
  bool any_negative = false;
  std::string out = g.name(g.edges()[cycle.front()].from);
  for (uint32_t ei : cycle) {
    const DependencyGraph::Edge& e = g.edges()[ei];
    any_negative |= e.negative;
    out += e.negative ? " ~> " : " -> ";
    out += g.name(e.to);
  }
  std::string text = "dependency cycle: " + out;
  if (any_negative) text += " (~> marks a dependency under negation)";
  return text;
}

std::string_view MetaGoalName(LiteralKind kind) {
  switch (kind) {
    case LiteralKind::kNext:
      return "next";
    case LiteralKind::kChoice:
      return "choice";
    case LiteralKind::kLeast:
      return "least";
    case LiteralKind::kMost:
      return "most";
    default:
      return "?";
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Rule shape
// ---------------------------------------------------------------------------

std::vector<Diagnostic> RuleStructureDiagnostics(const Rule& rule) {
  const std::string& head = rule.head.predicate;
  std::vector<Diagnostic> out;
  const auto flag = [&](std::string_view code, std::string message,
                        const Literal& goal) {
    Diagnostic d = MakeDiagnostic(code, std::move(message));
    d.predicate = head + "/" + std::to_string(rule.head.args.size());
    d.loc = goal.loc.valid() ? goal.loc : rule.loc;
    out.push_back(std::move(d));
  };
  // GD111: the rewritings place meta goals only at a body's top level.
  std::function<void(const Literal&)> flag_negated = [&](const Literal& l) {
    for (const Literal& inner : l.body) {
      if (inner.is_meta()) {
        flag(diag::kMetaInNegation,
             std::string(MetaGoalName(inner.kind)) +
                 " goal inside a negated conjunction in a rule for " + head,
             inner);
      }
      flag_negated(inner);
    }
  };
  const auto nexts = std::count_if(
      rule.body.begin(), rule.body.end(),
      [](const Literal& l) { return l.kind == LiteralKind::kNext; });
  int next_seen = 0;
  int extrema_seen = 0;
  for (const Literal& l : rule.body) {
    switch (l.kind) {
      case LiteralKind::kNext: {
        if (++next_seen == 2) {
          flag(diag::kMultipleNext,
               "rule for " + head + " has " + std::to_string(nexts) +
                   " next goals; at most one is allowed",
               l);
        }
        if (nexts != 1) break;
        const std::string& sv = l.args[0].name;
        const auto occurrences = std::count_if(
            rule.head.args.begin(), rule.head.args.end(),
            [&](const TermNode& t) { return t.is_var() && t.name == sv; });
        if (occurrences != 1) {
          flag(diag::kBadStageVar,
               "stage variable " + sv + " of next(...) " +
                   (occurrences == 0 ? "does not appear in the head"
                                     : "appears more than once in the head") +
                   " of a rule for " + head,
               l);
        }
        break;
      }
      case LiteralKind::kLeast:
      case LiteralKind::kMost: {
        const std::string which(MetaGoalName(l.kind));
        if (++extrema_seen == 2) {
          flag(diag::kMultipleExtrema,
               "rule for " + head + " has more than one extrema goal", l);
        }
        const TermNode& cost = l.args[0];
        const std::vector<std::string> group = DistinctVariables(l.args[1]);
        if (!cost.is_var()) {
          flag(diag::kNonVariableCost,
               which + " cost in a rule for " + head +
                   " must be a single variable",
               l);
        } else if (std::find(group.begin(), group.end(), cost.name) !=
                   group.end()) {
          flag(diag::kCostInGroup,
               which + " cost variable " + cost.name +
                   " also appears in the grouping of a rule for " + head,
               l);
        }
        break;
      }
      case LiteralKind::kNotExists:
        flag_negated(l);
        break;
      default:
        break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Main analysis
// ---------------------------------------------------------------------------

CliqueClause FirstCliqueClause(const Program& program,
                               const StageAnalysis& analysis,
                               const CliqueStageInfo& clique) {
  CliqueClause first;
  first.clause = UINT32_MAX;
  for (uint32_t ri : clique.rules) {
    if (program.ClauseOf(ri) < first.clause) {
      first = {program.ClauseOf(ri), program.rules[ri].loc};
    }
  }
  for (const FactBatch& b : program.facts) {
    const PredIndex p = analysis.graph->Lookup(b.predicate, b.arity);
    if (p == kNoPred || b.first_clause >= first.clause) continue;
    if (std::find(clique.members.begin(), clique.members.end(), p) !=
        clique.members.end()) {
      first = {b.first_clause, b.loc};
    }
  }
  return first;
}

Diagnostic CliqueDiagnostic(const Program& program,
                            const StageAnalysis& analysis, uint32_t scc) {
  const DependencyGraph& g = *analysis.graph;
  const CliqueStageInfo& cl = analysis.cliques[scc];
  GDLOG_CHECK(cl.cls == CliqueClass::kRejected ||
              cl.cls == CliqueClass::kRelaxedStage);
  std::string members;
  for (size_t i = 0; i < cl.members.size(); ++i) {
    if (i) members += ", ";
    members += PredKey(g, cl.members[i]);
  }
  Diagnostic d = MakeDiagnostic(
      cl.code, cl.cls == CliqueClass::kRejected
                   ? "recursive clique {" + members +
                         "} is not stage-stratified"
                   : "recursive clique {" + members +
                         "} is accepted under relaxed flat-rule "
                         "stratification only (stable-model guarantee "
                         "does not follow syntactically)");
  d.predicate = PredKey(g, cl.members[0]);
  const CliqueClause first = FirstCliqueClause(program, analysis, cl);
  d.rule_index = static_cast<int>(first.clause);
  d.loc = first.loc;
  const std::string cycle = FormatCycle(g, scc);
  if (!cycle.empty()) d.notes.push_back(cycle);
  if (!cl.diagnostic.empty()) d.notes.push_back(cl.diagnostic);
  return d;
}

Result<StageAnalysis> AnalyzeStages(const Program& program) {
  for (uint32_t ri = 0; ri < program.rules.size(); ++ri) {
    std::vector<Diagnostic> malformed =
        RuleStructureDiagnostics(program.rules[ri]);
    if (!malformed.empty()) return DiagnosticToStatus(malformed.front());
  }
  StageAnalysis out;
  out.expanded = ExpandNext(program);
  out.graph = std::make_unique<DependencyGraph>(out.expanded);
  const DependencyGraph& graph = *out.graph;

  // The ordering-check form: choice erased, extrema rewritten.
  const Program check_form = RewriteExtrema(EraseChoice(out.expanded));
  GDLOG_CHECK_EQ(check_form.rules.size(), program.rules.size());

  const size_t num_rules = program.rules.size();
  out.rule_info.assign(num_rules, RuleStageInfo{});
  out.stage_arg.assign(graph.num_predicates(), -1);
  out.cliques.resize(graph.num_sccs());
  for (uint32_t s = 0; s < graph.num_sccs(); ++s) {
    out.cliques[s].members = graph.scc_members(s);
    out.clique_order.push_back(s);
  }

  // Rule kinds. A rule is recursive (flat/next) when its body mentions a
  // predicate of its head's clique — on the *expanded* form, so next
  // rules are recursive by construction.
  for (uint32_t ri = 0; ri < num_rules; ++ri) {
    const Rule& orig = program.rules[ri];
    const Rule& exp = out.expanded.rules[ri];
    const PredIndex head = graph.Lookup(
        exp.head.predicate, static_cast<uint32_t>(exp.head.args.size()));
    GDLOG_CHECK_NE(head, kNoPred);
    const uint32_t scc = graph.scc_of(head);
    out.cliques[scc].rules.push_back(ri);

    bool recursive = false;
    std::function<void(const Literal&)> scan = [&](const Literal& l) {
      if (l.kind == LiteralKind::kAtom) {
        const PredIndex p = graph.Lookup(
            l.predicate, static_cast<uint32_t>(l.args.size()));
        if (p != kNoPred && graph.scc_of(p) == scc) recursive = true;
      }
      for (const Literal& inner : l.body) scan(inner);
    };
    for (const Literal& l : exp.body) scan(l);

    RuleStageInfo& info = out.rule_info[ri];
    if (orig.has_next()) {
      info.kind = RuleKind::kNext;
      info.stage_var =
          std::find_if(orig.body.begin(), orig.body.end(),
                       [](const Literal& l) {
                         return l.kind == LiteralKind::kNext;
                       })
              ->args[0]
              .name;
      out.cliques[scc].has_next_rules = true;
    } else {
      info.kind = recursive ? RuleKind::kFlat : RuleKind::kExit;
    }
  }

  // Stage-position inference, per clique containing next rules.
  for (uint32_t s = 0; s < graph.num_sccs(); ++s) {
    if (out.cliques[s].has_next_rules) InferStagePositions(program, s, &out);
  }

  // Record head stage positions on rules.
  for (uint32_t ri = 0; ri < num_rules; ++ri) {
    const PredIndex head = graph.Lookup(
        program.rules[ri].head.predicate,
        static_cast<uint32_t>(program.rules[ri].head.args.size()));
    out.rule_info[ri].head_stage_pos = out.stage_arg[head];
  }

  // Per-clique classification.
  for (uint32_t s = 0; s < graph.num_sccs(); ++s) {
    CliqueStageInfo& cl = out.cliques[s];
    if (cl.cls == CliqueClass::kRejected) continue;  // stage positions
    const bool recursive = graph.IsRecursive(s);
    const bool internal_neg = graph.HasInternalNegation(s);

    if (!cl.has_next_rules) {
      // Extrema in a recursive rule rewrite to negation over the clique
      // itself (the body copy), which the dependency graph — built
      // before the extrema rewriting — cannot see. Detect it directly.
      bool recursive_extrema = false;
      for (uint32_t ri : cl.rules) {
        if (out.rule_info[ri].kind == RuleKind::kFlat &&
            program.rules[ri].has_extrema()) {
          recursive_extrema = true;
        }
      }
      if (recursive && (internal_neg || recursive_extrema)) {
        cl.cls = CliqueClass::kRejected;
        cl.code = diag::kNotStageStratified;
        cl.diagnostic =
            recursive_extrema
                ? "extrema in recursion without stage variables"
                : "recursion through negation without stage variables";
      } else {
        // Horn vs merely stratified is cosmetic here; report Horn when no
        // rule of the clique uses negation at all.
        bool any_negation = false;
        for (uint32_t ri : cl.rules) {
          for (const Literal& l : check_form.rules[ri].body) {
            if (l.is_negated_atom() || l.kind == LiteralKind::kNotExists) {
              any_negation = true;
            }
          }
        }
        cl.cls = any_negation ? CliqueClass::kStratified : CliqueClass::kHorn;
      }
      continue;
    }

    // --- Stage clique structural conditions -----------------------------
    std::string problem;
    std::string problem_code;
    // (a) every recursive predicate has exactly one stage argument.
    for (PredIndex p : cl.members) {
      if (graph.IsIdb(p) && out.stage_arg[p] < 0 && recursive) {
        problem = "predicate " + graph.name(p) +
                  " in a stage clique has no stage argument";
        problem_code = diag::kMissingStageArg;
      }
    }
    // (b) recursive rules for one predicate are all next or all flat.
    for (PredIndex p : cl.members) {
      bool has_next = false, has_flat = false;
      for (uint32_t ri : graph.RulesFor(p)) {
        if (out.rule_info[ri].kind == RuleKind::kNext) has_next = true;
        if (out.rule_info[ri].kind == RuleKind::kFlat) has_flat = true;
      }
      if (has_next && has_flat) {
        problem = "predicate " + graph.name(p) +
                  " mixes next rules and flat recursive rules";
        problem_code = diag::kMixedRuleKinds;
      }
    }
    if (!problem.empty()) {
      cl.cls = CliqueClass::kRejected;
      cl.diagnostic = problem;
      cl.code = problem_code;
      continue;
    }

    // --- Ordering obligations on the check form --------------------------
    bool next_violation = false;
    bool flat_violation = false;
    for (uint32_t ri : cl.rules) {
      const Rule& cr = check_form.rules[ri];
      const RuleStageInfo& info = out.rule_info[ri];
      const PredIndex head = graph.Lookup(
          cr.head.predicate, static_cast<uint32_t>(cr.head.args.size()));
      const int hp = out.stage_arg[head];
      if (hp < 0) continue;  // non-stage predicate (cannot happen here)

      OrderConstraints oc;
      std::vector<StageOccurrence> occs;
      CollectOccurrences(cr.body, graph, s, out.stage_arg,
                         /*under_negation=*/false, &oc, &occs);
      std::string head_key;
      const bool head_ok = TermKey(cr.head.args[hp], &head_key, &oc);

      for (const StageOccurrence& occ : occs) {
        const bool need_strict =
            info.kind == RuleKind::kNext || occ.under_negation;
        bool proven = head_ok && occ.keyable &&
                      oc.Proves(occ.key, head_key, need_strict);
        if (!proven) {
          const std::string msg =
              "rule " + std::to_string(program.ClauseOf(ri)) + " for " +
              cr.head.predicate +
              ": stage argument of body goal " + occ.where +
              (need_strict ? " not provably < " : " not provably <= ") +
              "head stage argument";
          if (!cl.diagnostic.empty()) cl.diagnostic += "; ";
          cl.diagnostic += msg;
          if (info.kind == RuleKind::kNext) {
            next_violation = true;
          } else {
            flat_violation = true;
          }
        }
      }
    }

    if (next_violation) {
      cl.cls = CliqueClass::kRejected;
      cl.code = diag::kNotStageStratified;
    } else if (flat_violation) {
      // The fixpoint is still well-defined; Theorem 1's stable-model
      // guarantee no longer follows syntactically (Section 7, Kruskal).
      cl.cls = CliqueClass::kRelaxedStage;
      cl.code = diag::kRelaxedStratification;
    } else {
      cl.cls = CliqueClass::kStageStratified;
      cl.diagnostic.clear();
    }
  }

  return out;
}

}  // namespace gdlog
