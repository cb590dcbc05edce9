#include "eval/stable_model.h"

#include <algorithm>
#include <unordered_map>

#include "analysis/rewriter.h"
#include "analysis/stage.h"
#include "common/logging.h"
#include "eval/rule_compiler.h"
#include "eval/seminaive.h"

namespace gdlog {

namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// On-the-fly diffChoice$i evaluation: true iff some chosen$i tuple
/// agrees with `v` on a goal's left positions but differs on its right
/// positions.
bool DiffChoiceHolds(const ChoiceRewriteInfo::Entry& entry,
                     const std::vector<std::vector<Value>>& chosen,
                     TupleView v) {
  for (const ChoiceGoalSig& goal : entry.goals) {
    for (const std::vector<Value>& c : chosen) {
      bool left_match = true;
      for (uint32_t pos : goal.left_positions) {
        if (c[pos] != v[pos]) {
          left_match = false;
          break;
        }
      }
      if (!left_match) continue;
      for (uint32_t pos : goal.right_positions) {
        if (c[pos] != v[pos]) return true;
      }
    }
  }
  return false;
}

/// Occurrences of the variable `name` in a term or literal.
size_t CountVar(const TermNode& t, const std::string& name) {
  if (t.is_var()) return t.name == name ? 1 : 0;
  size_t n = 0;
  for (const TermNode& a : t.args) n += CountVar(a, name);
  return n;
}
size_t CountVar(const Literal& lit, const std::string& name) {
  size_t n = 0;
  for (const TermNode& a : lit.args) n += CountVar(a, name);
  for (const Literal& inner : lit.body) n += CountVar(inner, name);
  return n;
}

/// True when some variable of `t` occurs in `rule` only inside `lit`.
bool HasLocalVar(const TermNode& t, const Literal& lit, const Rule& rule) {
  if (t.is_var()) {
    size_t total = CountVar(rule.head, t.name);
    for (const Literal& l : rule.body) total += CountVar(l, t.name);
    return total == CountVar(lit, t.name);
  }
  for (const TermNode& a : t.args) {
    if (HasLocalVar(a, lit, rule)) return true;
  }
  return false;
}

/// The negation oracle tests a negated atom by membership in the fixed
/// model, which needs a ground tuple. A negated atom with a local
/// variable (`not e(_, X)`) is existentially quantified instead, so it
/// becomes the negated conjunction `not (e(_, X))`, which
/// NormalizeNotExists turns into an aux$ goal the checker evaluates
/// top-down against the same model. `body` is `rule`'s body or a
/// conjunction nested in it.
void QuantifyLocalNegations(const Rule& rule, std::vector<Literal>* body) {
  for (Literal& lit : *body) {
    if (lit.kind == LiteralKind::kNotExists) {
      QuantifyLocalNegations(rule, &lit.body);
      continue;
    }
    if (lit.kind != LiteralKind::kAtom || !lit.negated) continue;
    const bool has_local = std::any_of(
        lit.args.begin(), lit.args.end(),
        [&](const TermNode& t) { return HasLocalVar(t, lit, rule); });
    if (!has_local) continue;
    Literal atom = std::move(lit);
    atom.negated = false;
    lit = Literal::NotExists({std::move(atom)});
  }
}

}  // namespace

Result<StableCheckResult> CheckStableModel(
    const Program& original, const Catalog& model_catalog, ValueStore* store,
    const std::vector<std::vector<std::vector<Value>>>& chosen_by_rule,
    const std::vector<size_t>& edb_rows) {
  // ---- 1. Rewrite to normal form -----------------------------------------
  GDLOG_ASSIGN_OR_RETURN(Program p1, ExpandNext(original));
  ChoiceRewriteInfo info;
  Program p2 = RewriteChoice(p1, &info);
  GDLOG_ASSIGN_OR_RETURN(Program p3, RewriteExtrema(p2));
  for (Rule& r : p3.rules) QuantifyLocalNegations(r, &r.body);
  Program full = NormalizeNotExists(p3);

  if (info.entries.size() != chosen_by_rule.size()) {
    return Status::InvalidArgument(
        "chosen tuple sets (" + std::to_string(chosen_by_rule.size()) +
        ") do not match the program's choice rules (" +
        std::to_string(info.entries.size()) + ")");
  }
  std::unordered_map<std::string, size_t> diff_index;   // name -> entry
  std::unordered_map<std::string, size_t> chosen_index; // name -> entry
  for (size_t i = 0; i < info.entries.size(); ++i) {
    diff_index[info.entries[i].diff_name] = i;
    chosen_index[info.entries[i].chosen_name] = i;
  }

  // diffChoice$ rules are unsafe by construction (they exist for
  // display) — stripped; diffChoice$ is evaluated on the fly. aux$ rules
  // are parameterized (their head variables are call parameters, not
  // range-restricted) — split out and evaluated on the fly as well.
  Program checkable;
  Program aux_prog;
  for (Rule& r : full.rules) {
    if (StartsWith(r.head.predicate, "diffChoice$")) continue;
    if (StartsWith(r.head.predicate, "aux$")) {
      aux_prog.rules.push_back(std::move(r));
    } else {
      checkable.rules.push_back(std::move(r));
    }
  }

  // ---- 2. Assemble the candidate model M+ --------------------------------
  // The model catalog for oracle lookups: original relations + chosen$ +
  // aux$ (computed below).
  Catalog cm;
  // Copy every original relation present in the model.
  for (PredicateId id = 0; id < model_catalog.size(); ++id) {
    const Relation& rel = model_catalog.relation(id);
    const PredicateId nid = cm.Ensure(rel.name(), rel.arity());
    Relation& nrel = cm.relation(nid);
    for (RowId row = 0; row < rel.size(); ++row) nrel.Insert(rel.Row(row));
  }
  // chosen$ facts.
  for (size_t i = 0; i < info.entries.size(); ++i) {
    const PredicateId id =
        cm.Ensure(info.entries[i].chosen_name, info.entries[i].arity);
    Relation& rel = cm.relation(id);
    for (const std::vector<Value>& t : chosen_by_rule[i]) {
      if (t.size() != info.entries[i].arity) {
        return Status::InvalidArgument("chosen tuple arity mismatch for " +
                                       info.entries[i].chosen_name);
      }
      rel.Insert(TupleView(t));
    }
  }

  // aux$ rules compile against the model catalog with their head
  // variables treated as pre-bound call parameters; the oracle evaluates
  // them on demand (top-down) when a negated aux$ goal is tested.
  std::vector<CompiledRule> aux_rules;
  std::unordered_map<std::string, std::vector<const CompiledRule*>> aux_plans;
  if (!aux_prog.rules.empty()) {
    GDLOG_ASSIGN_OR_RETURN(StageAnalysis aux_analysis,
                           AnalyzeStages(aux_prog));
    CompileProgramOptions copts;
    copts.head_params_bound = [](const std::string& name) {
      return StartsWith(name, "aux$");
    };
    GDLOG_ASSIGN_OR_RETURN(
        aux_rules, CompileProgram(aux_prog, aux_analysis, &cm, store, copts));
    for (const CompiledRule& r : aux_rules) {
      aux_plans[cm.relation(r.head_pred).name() + "/" +
                std::to_string(r.head_arity)]
          .push_back(&r);
    }
  }

  // Oracle over M+ with virtual diffChoice$ and virtual aux$.
  PlanExecutor aux_exec(&cm, store);
  std::function<bool(const std::string&, uint32_t, TupleView)> holds_in_model =
      [&](const std::string& name, uint32_t arity, TupleView tuple) -> bool {
    auto dit = diff_index.find(name);
    if (dit != diff_index.end()) {
      return DiffChoiceHolds(info.entries[dit->second],
                             chosen_by_rule[dit->second], tuple);
    }
    auto ait = aux_plans.find(name + "/" + std::to_string(arity));
    if (ait != aux_plans.end()) {
      for (const CompiledRule* r : ait->second) {
        BindingFrame frame(r->num_slots);
        bool bound_ok = true;
        for (size_t i = 0; i < tuple.size(); ++i) {
          if (!MatchTerm(r->pool, r->head_terms[i], tuple[i], &frame,
                         store)) {
            bound_ok = false;
            break;
          }
        }
        if (!bound_ok) continue;
        bool witness = false;
        aux_exec.Enumerate(*r, r->generator, CompiledScan::kNoOccurrence,
                           &frame, [&witness](BindingFrame&) {
                             witness = true;
                             return false;
                           });
        if (witness) return true;
      }
      return false;
    }
    const PredicateId mid = cm.Lookup(name, arity);
    if (mid == kNoPredicate) return false;
    return cm.relation(mid).Contains(tuple);
  };
  auto make_oracle = [&](Catalog* bound_catalog) {
    return [&, bound_catalog](PredicateId pred, TupleView tuple) -> bool {
      const Relation& rel = bound_catalog->relation(pred);
      return holds_in_model(rel.name(), rel.arity(), tuple);
    };
  };
  aux_exec.set_negation_oracle(make_oracle(&cm));

  // ---- 3. Least fixpoint of the reduct ------------------------------------
  Catalog cd;
  // Seed: every EDB row (user facts and program facts) is extensional
  // input to the reduct.
  for (PredicateId id = 0; id < model_catalog.size(); ++id) {
    const Relation& rel = model_catalog.relation(id);
    const PredicateId nid = cd.Ensure(rel.name(), rel.arity());
    Relation& nrel = cd.relation(nid);
    const size_t limit =
        id < edb_rows.size() ? std::min(edb_rows[id], rel.size()) : 0;
    for (RowId row = 0; row < limit; ++row) nrel.Insert(rel.Row(row));
  }

  GDLOG_ASSIGN_OR_RETURN(StageAnalysis analysis, AnalyzeStages(checkable));
  GDLOG_ASSIGN_OR_RETURN(std::vector<CompiledRule> compiled,
                         CompileProgram(checkable, analysis, &cd, store));
  PlanExecutor exec(&cd, store);
  exec.set_negation_oracle(make_oracle(&cd));
  StableCheckResult result;
  result.stable = true;
  // Refutes stability at the first row of `a`, from `from` on, that
  // `other` lacks.
  auto compare_pred = [&](const Relation& a, RowId from, const Catalog& other,
                          const char* dir) {
    const PredicateId oid = other.Lookup(a.name(), a.arity());
    for (RowId row = from; row < a.size(); ++row) {
      const TupleView t = a.Row(row);
      if (oid == kNoPredicate || !other.relation(oid).Contains(t)) {
        result.stable = false;
        result.diagnostic =
            std::string(dir) + ": " + a.name() + TupleToString(*store, t);
        return;
      }
    }
  };
  // The reduct is positive, so a derived fact outside M+ stays derived
  // and refutes stability at once. Stopping there also ends a reduct
  // whose least model is infinite.
  for (size_t inserted = 1; inserted != 0 && result.stable;) {
    inserted = 0;
    for (const CompiledRule& r : compiled) {
      const Relation& head = cd.relation(r.head_pred);
      const RowId before = head.size();
      inserted += exec.ApplyRule(r, CompiledScan::kNoOccurrence);
      compare_pred(head, before, cm, "derived but not in model");
      if (!result.stable) break;
    }
  }

  // ---- 4. Compare M+ with lfp(P^{M+}) -------------------------------------
  // Every derived fact is in M+, so the two are equal iff M+ is
  // re-derived.
  for (PredicateId id = 0; id < cm.size() && result.stable; ++id) {
    compare_pred(cm.relation(id), 0, cd, "in model but not re-derived");
  }
  auto count_facts = [](const Catalog& c) {
    size_t n = 0;
    for (PredicateId id = 0; id < c.size(); ++id) {
      n += c.relation(id).size();
    }
    return n;
  };
  result.model_facts = count_facts(cm);
  result.reduct_facts = count_facts(cd);
  return result;
}

}  // namespace gdlog
