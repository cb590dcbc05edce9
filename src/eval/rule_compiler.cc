#include "eval/rule_compiler.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "analysis/safety.h"
#include "common/logging.h"

namespace gdlog {

// ---------------------------------------------------------------------------
// Term evaluation and matching
// ---------------------------------------------------------------------------

namespace {

// Arithmetic over the inline-int domain. Overflow — of int64 itself or
// of Value's 61-bit payload — makes the term fail to evaluate (the rule
// body simply doesn't match, like division by zero), never a crash.
bool EvalArith(ArithOp op, int64_t a, int64_t b, int64_t* out) {
  int64_t r = 0;
  switch (op) {
    case ArithOp::kAdd:
      if (__builtin_add_overflow(a, b, &r)) return false;
      break;
    case ArithOp::kSub:
      if (__builtin_sub_overflow(a, b, &r)) return false;
      break;
    case ArithOp::kMul:
      if (__builtin_mul_overflow(a, b, &r)) return false;
      break;
    case ArithOp::kDiv:
      if (b == 0) return false;
      if (a == INT64_MIN && b == -1) return false;
      r = a / b;
      break;
    case ArithOp::kMod:
      if (b == 0) return false;
      if (a == INT64_MIN && b == -1) return false;
      r = a % b;
      break;
    case ArithOp::kMin:
      r = a < b ? a : b;
      break;
    case ArithOp::kMax:
      r = a > b ? a : b;
      break;
  }
  if (!Value::IntInRange(r)) return false;
  *out = r;
  return true;
}

}  // namespace

bool EvalTerm(const std::vector<CTerm>& pool, uint32_t t,
              const BindingFrame& frame, ValueStore* store, Value* out) {
  const CTerm& ct = pool[t];
  switch (ct.kind) {
    case CTerm::Kind::kConst:
      *out = ct.constant;
      return true;
    case CTerm::Kind::kVar:
      if (!frame.IsBound(ct.var_slot)) return false;
      *out = frame.Get(ct.var_slot);
      return true;
    case CTerm::Kind::kConstruct: {
      std::vector<Value> args(ct.args.size());
      for (size_t i = 0; i < ct.args.size(); ++i) {
        if (!EvalTerm(pool, ct.args[i], frame, store, &args[i])) return false;
      }
      *out = store->MakeTerm(ct.functor, args);
      return true;
    }
    case CTerm::Kind::kArith: {
      GDLOG_CHECK_EQ(ct.args.size(), 2u);
      Value a, b;
      if (!EvalTerm(pool, ct.args[0], frame, store, &a)) return false;
      if (!EvalTerm(pool, ct.args[1], frame, store, &b)) return false;
      if (!a.is_int() || !b.is_int()) return false;
      int64_t r;
      if (!EvalArith(ct.op, a.AsInt(), b.AsInt(), &r)) return false;
      *out = Value::Int(r);
      return true;
    }
  }
  return false;
}

bool EvalTermComponents(const std::vector<CTerm>& pool, uint32_t t,
                        const BindingFrame& frame, ValueStore* store,
                        std::vector<Value>* out) {
  // Variables (the common component) are read inline.
  const auto eval = [&](uint32_t term) {
    const CTerm& ct = pool[term];
    Value v;
    if (ct.kind == CTerm::Kind::kVar) {
      if (!frame.IsBound(ct.var_slot)) return false;
      v = frame.Get(ct.var_slot);
    } else if (!EvalTerm(pool, term, frame, store, &v)) {
      return false;
    }
    out->push_back(v);
    return true;
  };
  const CTerm& ct = pool[t];
  if (ct.kind != CTerm::Kind::kConstruct) return eval(t);
  for (uint32_t arg : ct.args) {
    if (!eval(arg)) return false;
  }
  return true;
}

bool MatchTerm(const std::vector<CTerm>& pool, uint32_t t, Value v,
               BindingFrame* frame, ValueStore* store) {
  const CTerm& ct = pool[t];
  switch (ct.kind) {
    case CTerm::Kind::kConst:
      return ct.constant == v;
    case CTerm::Kind::kVar:
      if (frame->IsBound(ct.var_slot)) return frame->Get(ct.var_slot) == v;
      frame->Bind(ct.var_slot, v);
      return true;
    case CTerm::Kind::kConstruct: {
      if (!v.is_term()) return false;
      const TermId id = v.AsTermId();
      if (store->TermFunctor(id) != ct.functor) return false;
      auto args = store->TermArgs(id);
      if (args.size() != ct.args.size()) return false;
      for (size_t i = 0; i < args.size(); ++i) {
        if (!MatchTerm(pool, ct.args[i], args[i], frame, store)) return false;
      }
      return true;
    }
    case CTerm::Kind::kArith: {
      Value computed;
      if (!EvalTerm(pool, t, *frame, store, &computed)) return false;
      return computed == v;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Per-rule compiler
// ---------------------------------------------------------------------------

namespace {

ArithOp ArithOpOf(const std::string& name) {
  if (name == "+") return ArithOp::kAdd;
  if (name == "-") return ArithOp::kSub;
  if (name == "*") return ArithOp::kMul;
  if (name == "/") return ArithOp::kDiv;
  if (name == "mod") return ArithOp::kMod;
  if (name == "min") return ArithOp::kMin;
  GDLOG_CHECK_EQ(name, "max") << name << " is not an arithmetic functor";
  return ArithOp::kMax;
}

class RuleCompiler {
 public:
  RuleCompiler(const Program& program, const StageAnalysis& analysis,
               uint32_t rule_index, Catalog* catalog, ValueStore* store,
               bool head_params_bound, JoinPlanner* planner)
      : program_(program),
        analysis_(analysis),
        rule_(program.rules[rule_index]),
        catalog_(catalog),
        store_(store),
        planner_(planner),
        rule_pos_(rule_index),
        head_params_bound_(head_params_bound) {
    out_.rule_index = program.ClauseOf(rule_index);
  }

  /// Compiles a rule of a program AnalyzeStages accepted, which
  /// CompileProgram found safe.
  CompiledRule Compile() {
    const RuleStageInfo& info = analysis_.rule_info[rule_pos_];
    out_.is_next = info.kind == RuleKind::kNext;
    out_.head_stage_pos = info.head_stage_pos;

    head_pred_index_ = analysis_.graph->Lookup(
        rule_.head.predicate, static_cast<uint32_t>(rule_.head.args.size()));
    GDLOG_CHECK_NE(head_pred_index_, kNoPred);
    head_scc_ = analysis_.graph->scc_of(head_pred_index_);

    out_.head_pred = catalog_->Ensure(
        rule_.head.predicate, static_cast<uint32_t>(rule_.head.args.size()));
    out_.head_arity = static_cast<uint32_t>(rule_.head.args.size());

    if (out_.is_next) {
      out_.stage_slot = SlotOf(info.stage_var);
      stage_var_name_ = info.stage_var;
    }

    MarkHeadParamsBound();

    // Pass 1: compile body literals, greedily reordering so every
    // literal runs only once its inputs are bound (the paper's Example 6
    // writes `I = max(J, K)` after the negated conjunctions that read
    // I). Meta goals are extracted first; for next rules, literals that
    // need the stage variable wait for the post phase.
    CompileBodyReordered();

    // Implicit + explicit choice specs and chosen$ slots, in the order
    // RewriteChoice sees them on the expanded rule.
    BuildChoiceSpecs();
    out_.is_gamma = out_.is_next || !out_.choices.empty();

    for (const TermNode& t : rule_.head.args) {
      out_.head_terms.push_back(CompileTerm(t));
      out_.head_ops.push_back(ReadOpOf(out_.head_terms.back()));
    }

    // The candidate queue keys on the cost before the stage is known.
    if (out_.has_extremum && out_.is_next) {
      GDLOG_CHECK(generator_bound_.count(out_.pool[out_.cost_term].var_slot))
          << "next-rule cost bound only after the stage";
    }

    // Recursion shape.
    out_.recursive = out_.num_clique_occurrences > 0;
    out_.recompute_full =
        out_.has_extremum && !out_.is_next &&
        analysis_.graph->IsRecursive(head_scc_);

    ComputeSnapshotSlots();
    ComputeCongruence();
    out_.num_slots = static_cast<uint32_t>(out_.slot_names.size());
    return std::move(out_);
  }

 private:
  uint32_t SlotOf(const std::string& name) {
    auto it = slots_.find(name);
    if (it != slots_.end()) return it->second;
    const auto s = static_cast<uint32_t>(out_.slot_names.size());
    slots_.emplace(name, s);
    out_.slot_names.push_back(name);
    return s;
  }

  uint32_t CompileTerm(const TermNode& t) {
    CTerm ct;
    switch (t.kind) {
      case TermKind::kVariable:
        ct.kind = CTerm::Kind::kVar;
        ct.var_slot = SlotOf(t.name);
        break;
      case TermKind::kConstant:
        ct.kind = CTerm::Kind::kConst;
        ct.constant = t.constant;
        break;
      case TermKind::kCompound: {
        if (IsArithmeticTerm(t)) {
          ct.kind = CTerm::Kind::kArith;
          ct.op = ArithOpOf(t.name);
        } else {
          ct.kind = CTerm::Kind::kConstruct;
          ct.functor = t.is_tuple()
                           ? static_cast<SymbolId>(store_->tuple_functor())
                           : store_->MakeSymbol(t.name).AsSymbolId();
        }
        for (const TermNode& a : t.args) ct.args.push_back(CompileTerm(a));
        break;
      }
    }
    out_.pool.push_back(std::move(ct));
    return static_cast<uint32_t>(out_.pool.size() - 1);
  }

  /// The read op for pool[t], whose variables the plan has bound.
  TermOp ReadOpOf(uint32_t t) const {
    const CTerm& ct = out_.pool[t];
    TermOp op;
    switch (ct.kind) {
      case CTerm::Kind::kVar:
        op.kind = TermOp::Kind::kSlot;
        op.index = ct.var_slot;
        break;
      case CTerm::Kind::kConst:
        op.kind = TermOp::Kind::kConst;
        op.constant = ct.constant;
        break;
      default:
        op.kind = TermOp::Kind::kTerm;
        op.index = t;
    }
    return op;
  }

  /// The read ops of pool[t]'s components, as EvalTermComponents
  /// flattens it.
  std::vector<TermOp> ComponentOpsOf(uint32_t t) const {
    const CTerm& ct = out_.pool[t];
    if (ct.kind != CTerm::Kind::kConstruct) return {ReadOpOf(t)};
    std::vector<TermOp> ops;
    for (uint32_t arg : ct.args) ops.push_back(ReadOpOf(arg));
    return ops;
  }

  /// Resolves a scan's probe-key and column ops; `bound` holds the slots
  /// bound before the scan runs. A variable's first occurrence binds,
  /// later ones check; functor and arithmetic columns match through
  /// MatchTerm, which binds their new variables on the trail.
  void ResolveScanOps(CompiledScan* scan,
                      const std::unordered_set<uint32_t>& bound) const {
    for (uint32_t col : scan->bound_cols) {
      scan->key_ops.push_back(ReadOpOf(scan->arg_terms[col]));
    }
    std::unordered_set<uint32_t> local;  // bound by earlier columns
    std::vector<TermOp> in_order;
    for (uint32_t col = 0; col < scan->arg_terms.size(); ++col) {
      const uint32_t t = scan->arg_terms[col];
      const CTerm& ct = out_.pool[t];
      TermOp op = ReadOpOf(t);
      op.col = col;
      if (op.kind == TermOp::Kind::kConst ||
          (op.kind == TermOp::Kind::kSlot && bound.count(ct.var_slot))) {
        scan->col_ops.push_back(op);  // depends on nothing in this row
        continue;
      }
      if (op.kind == TermOp::Kind::kTerm) {
        scan->has_term_op = true;
        std::vector<uint32_t> slots;
        CollectSlots(t, &slots);
        for (uint32_t s : slots) {
          if (!bound.count(s)) local.insert(s);
        }
      } else if (local.insert(ct.var_slot).second) {
        op.kind = TermOp::Kind::kBind;
        scan->bind_slots.push_back(ct.var_slot);
      }
      in_order.push_back(op);
    }
    scan->col_ops.insert(scan->col_ops.end(), in_order.begin(),
                         in_order.end());
  }

  void CollectSlots(uint32_t t, std::vector<uint32_t>* out) const {
    const CTerm& ct = out_.pool[t];
    if (ct.kind == CTerm::Kind::kVar) {
      out->push_back(ct.var_slot);
    } else {
      for (uint32_t a : ct.args) CollectSlots(a, out);
    }
  }

  /// Head arguments that are call parameters (checker-only aux$ mode)
  /// are bound before the body runs.
  void MarkHeadParamsBound() {
    if (!head_params_bound_) return;
    std::vector<std::string> head_vars;
    for (const TermNode& t : rule_.head.args) CollectVariables(t, &head_vars);
    for (const std::string& v : head_vars) {
      MarkBound(SlotOf(v), /*in_generator=*/true);
    }
  }

  void MarkBound(uint32_t slot, bool in_generator) {
    if (in_generator) {
      if (generator_bound_.insert(slot).second) {
        out_.generator_bound_slots.push_back(slot);
      }
    } else {
      post_bound_.insert(slot);
    }
  }

  /// In a next rule: reads the stage variable, so it waits for the post
  /// phase.
  bool ReadsStage(const Literal& lit) const {
    if (!out_.is_next) return false;
    std::vector<std::string> vars;
    CollectLiteralVariables(lit, &vars);
    return std::find(vars.begin(), vars.end(), stage_var_name_) != vars.end();
  }

  /// Drops post comparisons that are guaranteed true by the stage-counter
  /// discipline: J < I and J <= I and J != I where I is the stage
  /// variable and J is bound from a same-clique stage column (the stage
  /// counter always exceeds every stage value in the database).
  bool AlwaysTruePostComparison(const Literal& lit) const {
    if (lit.kind != LiteralKind::kComparison || !out_.is_next) return false;
    const TermNode* stage_side = nullptr;
    const TermNode* other = nullptr;
    ComparisonOp op = lit.op;
    if (lit.args[1].is_var() && lit.args[1].name == stage_var_name_) {
      stage_side = &lit.args[1];
      other = &lit.args[0];
    } else if (lit.args[0].is_var() && lit.args[0].name == stage_var_name_) {
      stage_side = &lit.args[0];
      other = &lit.args[1];
      op = FlipComparison(op);
    } else {
      return false;
    }
    (void)stage_side;
    // Now the obligation reads: other OP stage.
    if (op != ComparisonOp::kLt && op != ComparisonOp::kLe &&
        op != ComparisonOp::kNe) {
      return false;
    }
    if (!other->is_var()) return false;
    auto it = slots_.find(other->name);
    if (it == slots_.end()) return false;
    return stage_derived_.count(it->second) > 0;
  }

  void CompileBodyReordered() {
    std::vector<const Literal*> work;
    for (const Literal& lit : rule_.body) {
      switch (lit.kind) {
        case LiteralKind::kNext:
          break;  // metadata handled via StageAnalysis
        case LiteralKind::kLeast:
        case LiteralKind::kMost: {
          out_.has_extremum = true;
          out_.is_least = lit.kind == LiteralKind::kLeast;
          out_.cost_term = CompileTerm(lit.args[0]);
          out_.group_term = CompileTerm(lit.args[1]);
          break;
        }
        case LiteralKind::kChoice:
          break;  // handled in BuildChoiceSpecs
        default:
          work.push_back(&lit);
      }
    }

    // Pre-assign delta occurrence numbers in original body order, so the
    // same atom carries the same window across every plan variant.
    for (const Literal* lit : work) {
      if (!lit->is_positive_atom()) continue;
      if (ReadsStage(*lit)) continue;
      const PredIndex p = analysis_.graph->Lookup(
          lit->predicate, static_cast<uint32_t>(lit->args.size()));
      if (p == kNoPred || analysis_.graph->scc_of(p) != head_scc_) continue;
      occurrence_of_[lit] = out_.num_clique_occurrences++;
    }

    auto main_work = work;
    CompilePhase(&main_work, &out_.generator, /*in_post=*/false, nullptr,
                 /*record=*/planner_ != nullptr);
    const size_t post_goals = main_work.size();
    if (out_.is_next) {
      CompilePhase(&main_work, &out_.post, /*in_post=*/true, nullptr);
    }
    // RuleSafetyDiagnostics found the rule safe: every goal could run.
    GDLOG_CHECK(main_work.empty()) << "body goal never ready";

    // Delta-first variants: one generator plan per clique occurrence,
    // with that atom leading the join.
    out_.delta_plans.resize(out_.num_clique_occurrences);
    for (const auto& [pinned, occ] : occurrence_of_) {
      auto variant_work = work;
      const auto saved_gen = generator_bound_;
      const auto saved_post = post_bound_;
      const auto saved_stage = stage_derived_;
      const auto saved_slots = out_.generator_bound_slots;
      generator_bound_.clear();
      post_bound_.clear();
      stage_derived_.clear();
      out_.generator_bound_slots.clear();
      MarkHeadParamsBound();
      CompilePhase(&variant_work, &out_.delta_plans[occ], /*in_post=*/false,
                   pinned);
      generator_bound_ = saved_gen;
      post_bound_ = saved_post;
      stage_derived_ = saved_stage;
      out_.generator_bound_slots = saved_slots;
      // Readiness is monotone: the variant runs what the generator runs.
      GDLOG_CHECK_EQ(variant_work.size(), post_goals);
    }
  }

  /// Bound columns of an atom under the current bound set: CompileAtom's
  /// probe columns, and what the planner costs a candidate scan by.
  std::vector<uint32_t> BoundColsOf(const Literal& lit, bool in_post) const {
    const IsBoundFn is_bound = BoundNames(in_post);
    std::vector<uint32_t> cols;
    for (size_t col = 0; col < lit.args.size(); ++col) {
      std::vector<std::string> vars;
      CollectVariables(lit.args[col], &vars);
      if (std::all_of(vars.begin(), vars.end(), std::cref(is_bound))) {
        cols.push_back(static_cast<uint32_t>(col));
      }
    }
    return cols;
  }

  /// Dense per-rule id for a positive body atom, assigned on first sight
  /// and stable thereafter (delta plans recompile the same Literal
  /// pointers, so they resolve to the generator's ids).
  uint32_t GoalIdOf(const Literal* lit) {
    const auto [it, inserted] = goal_id_of_.emplace(lit, out_.num_goals);
    if (inserted) ++out_.num_goals;
    return it->second;
  }

  double EstimateAtomCost(const Literal& lit, bool in_post) const {
    const PredicateId pred = catalog_->Ensure(
        lit.predicate, static_cast<uint32_t>(lit.args.size()));
    return planner_->EstimateScanRows(pred, BoundColsOf(lit, in_post));
  }

  void RecordDecision(const Literal& lit, bool in_post) {
    PlanDecision d;
    switch (lit.kind) {
      case LiteralKind::kAtom:
        d.goal = lit.predicate + "/" + std::to_string(lit.args.size());
        d.negated = lit.negated;
        d.filter = lit.negated;
        d.arity = static_cast<uint32_t>(lit.args.size());
        d.bound_cols =
            static_cast<uint32_t>(BoundColsOf(lit, in_post).size());
        if (!lit.negated) {
          d.est_rows = EstimateAtomCost(lit, in_post);
          d.goal_id = static_cast<int>(GoalIdOf(&lit));
        }
        break;
      case LiteralKind::kComparison:
        d.goal = std::string(ComparisonOpName(lit.op));
        d.filter = true;
        break;
      default:
        d.goal = "not-exists";
        d.filter = true;
        break;
    }
    out_.plan_decisions.push_back(std::move(d));
  }

  void CompilePhase(std::vector<const Literal*>* work,
                    std::vector<CompiledLiteral>* plan, bool in_post,
                    const Literal* pinned_first, bool record = false) {
    bool progress = true;
    bool pin_pending = pinned_first != nullptr;
    while (progress && !work->empty()) {
      progress = false;
      // The delta atom leads its plan variant as soon as it can run.
      const bool pin_ready = pin_pending && Ready(*pinned_first, in_post);
      // Push selections down: among ready literals prefer (1) pure
      // filters — comparisons, negated atoms, negated conjunctions —
      // over (2) positive scans, so cheap tests run before joins widen.
      // With a planner, the scan pick is the ready atom with the
      // smallest estimated result (ties keep original order); without,
      // it is the first ready atom in original order.
      size_t pick = work->size();
      double pick_cost = 0;
      for (size_t i = 0; i < work->size(); ++i) {
        const Literal& lit = *(*work)[i];
        if (pin_ready && &lit != pinned_first) continue;
        if (!Ready(lit, in_post)) continue;
        const bool is_filter = lit.kind == LiteralKind::kComparison ||
                               lit.kind == LiteralKind::kNotExists ||
                               (lit.kind == LiteralKind::kAtom &&
                                lit.negated);
        if (is_filter) {
          pick = i;
          break;  // first ready filter in original order wins
        }
        if (pin_ready) {
          pick = i;
          break;
        }
        if (planner_ != nullptr) {
          const double cost = EstimateAtomCost(lit, in_post);
          if (pick == work->size() || cost < pick_cost) {
            pick = i;
            pick_cost = cost;
          }
        } else if (pick == work->size()) {
          pick = i;  // first ready scan, fallback
        }
      }
      if (pick < work->size()) {
        const Literal& lit = *(*work)[pick];
        if (&lit == pinned_first) pin_pending = false;
        if (record) RecordDecision(lit, in_post);
        switch (lit.kind) {
          case LiteralKind::kAtom:
            CompileAtom(lit, plan, in_post);
            break;
          case LiteralKind::kComparison:
            if (in_post && AlwaysTruePostComparison(lit)) break;
            CompileComparison(lit, plan, in_post);
            break;
          default:  // kNotExists; meta goals never enter the work list
            CompileNotExists(lit, plan, in_post);
        }
        work->erase(work->begin() + pick);
        progress = true;
      }
    }
  }

  bool Ready(const Literal& lit, bool in_post) const {
    // In the generator phase of a next rule, stage-dependent literals
    // wait for the post phase.
    if (!in_post && ReadsStage(lit)) return false;
    return GoalReady(lit, rule_, BoundNames(in_post));
  }

  /// Whether a variable is bound in the plan segment being compiled.
  IsBoundFn BoundNames(bool in_post) const {
    return [this, bound = VisibleBound(in_post)](const std::string& name) {
      const auto it = slots_.find(name);
      return it != slots_.end() && bound.count(it->second) > 0;
    };
  }

  /// The bound set visible to a plan segment: generator bindings, plus
  /// stage/post bindings when compiling the post segment, plus
  /// subplan-local bindings inside a NotExists.
  std::unordered_set<uint32_t> VisibleBound(bool in_post) const {
    std::unordered_set<uint32_t> b = generator_bound_;
    if (in_post) {
      if (out_.is_next) b.insert(out_.stage_slot);
      for (uint32_t s : post_bound_) b.insert(s);
    }
    if (in_subplan_) {
      for (uint32_t s : subplan_bound_) b.insert(s);
    }
    return b;
  }

  /// Compiles a ready body atom. Inside a `not (...)` (in_subplan_) the
  /// variables it binds stay local to the subplan.
  void CompileAtom(const Literal& lit, std::vector<CompiledLiteral>* plan,
                   bool in_post) {
    CompiledLiteral cl;
    cl.kind = CompiledLiteral::Kind::kScan;
    CompiledScan& scan = cl.scan;
    scan.negated = lit.negated;
    scan.pred = catalog_->Ensure(lit.predicate,
                                 static_cast<uint32_t>(lit.args.size()));

    const PredIndex pidx = analysis_.graph->Lookup(
        lit.predicate, static_cast<uint32_t>(lit.args.size()));
    const bool same_clique =
        pidx != kNoPred && analysis_.graph->scc_of(pidx) == head_scc_;
    const auto occ_it = occurrence_of_.find(&lit);
    if (occ_it != occurrence_of_.end()) {
      scan.clique_occurrence = occ_it->second;
    }
    // Goal ids key off the AST literal, so every plan variant (generator,
    // delta plans, post) compiling the same body atom shares one id and
    // the executor's cardinality counters aggregate across variants.
    if (!lit.negated && !in_subplan_) scan.goal_id = GoalIdOf(&lit);

    const auto bound = VisibleBound(in_post);
    for (const TermNode& arg : lit.args) {
      scan.arg_terms.push_back(CompileTerm(arg));
    }
    scan.bound_cols = BoundColsOf(lit, in_post);
    if (!scan.bound_cols.empty()) {
      Relation& rel = catalog_->relation(scan.pred);
      scan.index_id = static_cast<int>(rel.EnsureIndex(scan.bound_cols));
    }
    ResolveScanOps(&scan, bound);

    // New bindings from unbound columns. (Unbound variables in a negated
    // atom are local existentials: it was ready, so they occur nowhere
    // else.)
    for (size_t col = 0; !lit.negated && col < lit.args.size(); ++col) {
      std::vector<uint32_t> slots;
      CollectSlots(scan.arg_terms[col], &slots);
      for (uint32_t s : slots) {
        if (bound.count(s)) continue;
        if (in_subplan_) {
          subplan_bound_.insert(s);
        } else if (!generator_bound_.count(s) && !post_bound_.count(s)) {
          MarkBound(s, !in_post);
          // Track stage-derived slots: bound from the stage column of a
          // same-clique predicate.
          if (same_clique && analysis_.stage_arg[pidx] ==
                                 static_cast<int>(col)) {
            stage_derived_.insert(s);
          }
        }
      }
    }
    plan->push_back(std::move(cl));
  }

  void CompileComparison(const Literal& lit,
                         std::vector<CompiledLiteral>* plan, bool in_post) {
    CompiledLiteral cl;
    cl.kind = CompiledLiteral::Kind::kCompare;
    CompiledCompare& cmp = cl.cmp;
    cmp.op = lit.op;
    cmp.lhs = CompileTerm(lit.args[0]);
    cmp.rhs = CompileTerm(lit.args[1]);
    cmp.lhs_op = ReadOpOf(cmp.lhs);
    cmp.rhs_op = ReadOpOf(cmp.rhs);

    const auto bound = VisibleBound(in_post);
    const auto unbound_var = [&](uint32_t t) {
      return out_.pool[t].kind == CTerm::Kind::kVar &&
             !bound.count(out_.pool[t].var_slot);
    };
    // Ready, so a side that is an unbound variable is an `=` assigning
    // it the other side's value.
    const bool assign_lhs = unbound_var(cmp.lhs);
    if (assign_lhs || unbound_var(cmp.rhs)) {
      cmp.is_assignment = true;
      cmp.assign_slot = out_.pool[assign_lhs ? cmp.lhs : cmp.rhs].var_slot;
      cmp.value_op = assign_lhs ? cmp.rhs_op : cmp.lhs_op;
      if (in_subplan_) {
        subplan_bound_.insert(cmp.assign_slot);
      } else {
        MarkBound(cmp.assign_slot, !in_post);
      }
    }
    plan->push_back(std::move(cl));
  }

  void CompileNotExists(const Literal& lit,
                        std::vector<CompiledLiteral>* plan, bool in_post) {
    CompiledLiteral cl;
    cl.kind = CompiledLiteral::Kind::kNotExists;
    const bool saved = in_subplan_;
    in_subplan_ = true;
    auto saved_bound = subplan_bound_;
    // The first ready goal runs next, so goals keep their source order
    // except where a goal must wait for another to bind its variables.
    std::vector<const Literal*> work;
    for (const Literal& inner : lit.body) work.push_back(&inner);
    while (!work.empty()) {
      const auto next = std::find_if(
          work.begin(), work.end(),
          [&](const Literal* inner) { return Ready(*inner, in_post); });
      // The rule is safe and has no meta goal inside `not (...)`
      // (GD111), so some goal is ready.
      GDLOG_CHECK(next != work.end()) << "goal inside not (...) never ready";
      const Literal& inner = **next;
      switch (inner.kind) {
        case LiteralKind::kAtom:
          CompileAtom(inner, &cl.sub, in_post);
          break;
        case LiteralKind::kComparison:
          CompileComparison(inner, &cl.sub, in_post);
          break;
        default:
          CompileNotExists(inner, &cl.sub, in_post);
      }
      work.erase(next);
    }
    in_subplan_ = saved;
    subplan_bound_ = std::move(saved_bound);
    plan->push_back(std::move(cl));
  }

  void BuildChoiceSpecs() {
    // Walk original body in order; next(I) contributes the implicit
    // choice(I, W), choice(W, I) pair at its position, matching the order
    // produced by ExpandNext + RewriteChoice.
    std::vector<std::string> chosen_vars;
    auto add_choice = [&](const TermNode& left, const TermNode& right,
                          bool from_next) {
      ChoiceSpec spec;
      spec.left_term = CompileTerm(left);
      spec.right_term = CompileTerm(right);
      spec.left_ops = ComponentOpsOf(spec.left_term);
      spec.right_ops = ComponentOpsOf(spec.right_term);
      spec.from_next = from_next;
      out_.choices.push_back(spec);
      CollectVariables(left, &chosen_vars);
      CollectVariables(right, &chosen_vars);
    };
    for (const Literal& lit : rule_.body) {
      if (lit.kind == LiteralKind::kNext) {
        // Reconstruct W = head args minus the stage position.
        std::vector<TermNode> w_elems;
        for (size_t j = 0; j < rule_.head.args.size(); ++j) {
          if (static_cast<int>(j) != out_.head_stage_pos) {
            w_elems.push_back(rule_.head.args[j]);
          }
        }
        TermNode w = w_elems.size() == 1 ? w_elems[0]
                                         : TermNode::Tuple(std::move(w_elems));
        const TermNode stage = TermNode::Var(stage_var_name_);
        add_choice(stage, w, /*from_next=*/true);
        add_choice(w, stage, /*from_next=*/true);
      } else if (lit.kind == LiteralKind::kChoice) {
        add_choice(lit.args[0], lit.args[1], /*from_next=*/false);
      }
    }
    // chosen$ argument slots (distinct, first occurrence).
    std::unordered_set<std::string> seen;
    for (const std::string& v : chosen_vars) {
      if (seen.insert(v).second) {
        out_.chosen_slots.push_back(SlotOf(v));
      }
    }
  }

  void ComputeSnapshotSlots() {
    if (!out_.is_gamma) return;
    std::unordered_set<uint32_t> live;
    auto add_term = [&](uint32_t t) { CollectSlots(t, &live_scratch_); };
    for (uint32_t t : out_.head_terms) add_term(t);
    for (const ChoiceSpec& spec : out_.choices) {
      add_term(spec.left_term);
      add_term(spec.right_term);
    }
    if (out_.has_extremum) {
      add_term(out_.cost_term);
      add_term(out_.group_term);
    }
    std::function<void(const CompiledLiteral&)> visit =
        [&](const CompiledLiteral& l) {
          switch (l.kind) {
            case CompiledLiteral::Kind::kScan:
              for (uint32_t t : l.scan.arg_terms) add_term(t);
              break;
            case CompiledLiteral::Kind::kCompare:
              add_term(l.cmp.lhs);
              add_term(l.cmp.rhs);
              break;
            case CompiledLiteral::Kind::kNotExists:
              for (const CompiledLiteral& inner : l.sub) visit(inner);
              break;
          }
        };
    for (const CompiledLiteral& l : out_.post) visit(l);
    for (uint32_t s : live_scratch_) live.insert(s);
    for (uint32_t s : out_.generator_bound_slots) {
      if (live.count(s)) out_.snapshot_slots.push_back(s);
    }
  }

  void ComputeCongruence() {
    if (!out_.is_gamma) return;
    // Candidate congruence-key slots: variables of non-stage-keyed choice
    // left-hand sides that are generator-bound.
    std::unordered_set<uint32_t> keys;
    for (const ChoiceSpec& spec : out_.choices) {
      if (spec.from_next) continue;
      std::vector<uint32_t> slots;
      CollectSlots(spec.left_term, &slots);
      bool all_gen = true;
      for (uint32_t s : slots) {
        if (!generator_bound_.count(s)) all_gen = false;
      }
      if (!all_gen) continue;
      for (uint32_t s : slots) keys.insert(s);
    }
    if (keys.empty()) return;

    // Coverage closure: keys + cost + FD-determined attributes must cover
    // every generator-bound, non-stage-derived slot, and the post plan
    // must be empty (a nonempty post can distinguish congruent
    // candidates, e.g. TSP's I = J + 1).
    if (!out_.post.empty()) return;
    std::unordered_set<uint32_t> covered = keys;
    if (out_.has_extremum) {
      const CTerm& cost = out_.pool[out_.cost_term];
      if (cost.kind == CTerm::Kind::kVar) covered.insert(cost.var_slot);
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (const ChoiceSpec& spec : out_.choices) {
        if (spec.from_next) continue;
        std::vector<uint32_t> lslots, rslots;
        CollectSlots(spec.left_term, &lslots);
        CollectSlots(spec.right_term, &rslots);
        bool left_covered = true;
        for (uint32_t s : lslots) {
          if (!covered.count(s)) left_covered = false;
        }
        if (!left_covered) continue;
        for (uint32_t s : rslots) {
          if (generator_bound_.count(s) && covered.insert(s).second) {
            changed = true;
          }
        }
      }
    }
    for (uint32_t s : out_.snapshot_slots) {
      if (stage_derived_.count(s)) continue;
      if (!covered.count(s)) return;  // not safe to merge
    }
    out_.merge_by_choice_keys = true;
    out_.congruence_slots.assign(keys.begin(), keys.end());
    std::sort(out_.congruence_slots.begin(), out_.congruence_slots.end());
  }

  const Program& program_;
  const StageAnalysis& analysis_;
  const Rule& rule_;
  Catalog* catalog_;
  ValueStore* store_;

  JoinPlanner* planner_ = nullptr;

  CompiledRule out_;
  std::unordered_map<std::string, uint32_t> slots_;
  std::unordered_set<uint32_t> generator_bound_;
  std::unordered_set<uint32_t> post_bound_;
  std::unordered_set<uint32_t> stage_derived_;
  std::unordered_set<uint32_t> subplan_bound_;
  std::vector<uint32_t> live_scratch_;
  std::unordered_map<const Literal*, uint32_t> occurrence_of_;
  std::unordered_map<const Literal*, uint32_t> goal_id_of_;
  std::string stage_var_name_;
  PredIndex head_pred_index_ = kNoPred;
  uint32_t head_scc_ = 0;
  bool in_subplan_ = false;
  uint32_t rule_pos_;  // index into program_.rules
  bool head_params_bound_ = false;
};

}  // namespace

Result<std::vector<CompiledRule>> CompileProgram(
    const Program& program, const StageAnalysis& analysis, Catalog* catalog,
    ValueStore* store, const CompileProgramOptions& options) {
  std::vector<CompiledRule> out;
  out.reserve(program.rules.size());
  // Ensure head relations exist even for predicates that are never read.
  for (const Rule& r : program.rules) {
    catalog->Ensure(r.head.predicate,
                    static_cast<uint32_t>(r.head.args.size()));
  }
  const auto head_bound = [&](const Rule& r) {
    return options.head_params_bound &&
           options.head_params_bound(r.head.predicate);
  };
  // Safety is decided for every rule before any compiles: a program
  // with an unsafe rule is refused with that rule's first diagnostic,
  // a fact with a variable included (ground facts load as rows).
  for (const Rule& r : program.rules) {
    const std::vector<Diagnostic> unsafe =
        RuleSafetyDiagnostics(r, head_bound(r));
    if (!unsafe.empty()) return DiagnosticToStatus(unsafe.front());
  }
  int gamma_counter = 0;
  for (uint32_t ri = 0; ri < program.rules.size(); ++ri) {
    if (program.rules[ri].is_fact()) continue;
    RuleCompiler rc(program, analysis, ri, catalog, store,
                    head_bound(program.rules[ri]), options.planner);
    CompiledRule cr = rc.Compile();
    if (cr.is_gamma) cr.gamma_index = gamma_counter++;
    out.push_back(std::move(cr));
  }
  return out;
}

}  // namespace gdlog
