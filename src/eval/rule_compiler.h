// Rule compilation: turns AST rules into executable plans.
//
// Variables become dense slots; terms become nodes in a per-rule pool;
// body literals become a left-to-right join plan with per-goal index
// selection (the "availability of indices" assumed by Section 6), each
// goal placed once analysis/safety.h finds it ready to run.
//
// Meta goals are lifted out of the plan into rule metadata:
//   * next(I)        -> is_next / stage_slot; the fixpoint driver assigns
//                       I from the clique's stage counter at fire time
//   * least/most     -> extremum metadata; in next rules this selects the
//                       (R,Q,L) priority-queue discipline, elsewhere a
//                       grouped aggregate over the rule's bindings
//   * choice(L, R)   -> an FD spec checked against the chosen memo
//
// For a next rule the body splits into the *generator* (literals whose
// variables are independent of the stage variable — evaluated when
// candidates are inserted into the queue, exactly the paper's "insertion
// into D_r") and the *post* plan (stage-dependent comparisons and negated
// conjunctions — evaluated when a candidate is popped, after the stage
// variable is bound).
#ifndef GDLOG_EVAL_RULE_COMPILER_H_
#define GDLOG_EVAL_RULE_COMPILER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/stage.h"
#include "ast/ast.h"
#include "common/status.h"
#include "eval/binding.h"
#include "eval/join_planner.h"
#include "storage/catalog.h"

namespace gdlog {

// ---------------------------------------------------------------------------
// Compiled terms
// ---------------------------------------------------------------------------

enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv, kMod, kMin, kMax };

struct CTerm {
  enum class Kind : uint8_t { kConst, kVar, kConstruct, kArith };
  Kind kind = Kind::kConst;
  Value constant;                // kConst
  uint32_t var_slot = 0;         // kVar
  SymbolId functor = 0;          // kConstruct ($tuple for tuples)
  ArithOp op = ArithOp::kAdd;    // kArith
  std::vector<uint32_t> args;    // kConstruct / kArith: pool indices
};

/// Evaluates pool[t] under `frame`. Returns false (leaving *out
/// untouched) if an unbound variable is reached or arithmetic is applied
/// to a non-integer.
bool EvalTerm(const std::vector<CTerm>& pool, uint32_t t,
              const BindingFrame& frame, ValueStore* store, Value* out);

/// Evaluates pool[t] one level flattened, appending to `out`: a
/// constructor term (a choice goal's tuple, say) yields its evaluated
/// arguments, any other term its one value. For a fixed term two
/// evaluations are equal iff their components are, so callers can hash
/// and compare components instead of interning the term. Returns false
/// exactly when EvalTerm would.
bool EvalTermComponents(const std::vector<CTerm>& pool, uint32_t t,
                        const BindingFrame& frame, ValueStore* store,
                        std::vector<Value>* out);
/// The number of values EvalTermComponents appends for pool[t].
inline uint32_t TermComponentCount(const std::vector<CTerm>& pool,
                                   uint32_t t) {
  return pool[t].kind == CTerm::Kind::kConstruct
             ? static_cast<uint32_t>(pool[t].args.size())
             : 1;
}

/// Matches value `v` against pool[t]: unbound variables bind (recorded on
/// the frame's trail), bound ones compare, constructors destructure, and
/// arithmetic subterms evaluate-and-compare. Returns false on mismatch
/// (callers unwind the trail).
bool MatchTerm(const std::vector<CTerm>& pool, uint32_t t, Value v,
               BindingFrame* frame, ValueStore* store);

/// A term resolved at compile time against the slots its plan has bound
/// where it runs. Read ops (probe keys, comparison operands, heads) are
/// kSlot, kConst or kTerm; a scan's column ops add kBind, and there
/// kSlot and kConst compare the column instead of producing a value.
struct TermOp {
  enum class Kind : uint8_t {
    kBind,   // column: first occurrence of a variable; store the value
    kSlot,   // a variable the plan has bound: read, or compare the column
    kConst,  // a constant: read, or compare the column
    kTerm,   // a functor or arithmetic term: EvalTerm / MatchTerm
  };
  Kind kind = Kind::kConst;
  uint32_t col = 0;    // column ops: the column matched
  uint32_t index = 0;  // kBind/kSlot: the slot; kTerm: the pool index
  Value constant;      // kConst
};

/// Reads a kSlot/kConst/kTerm op under `frame`; false exactly when
/// EvalTerm would fail on the term (an arithmetic failure for kTerm).
inline bool ReadOp(const std::vector<CTerm>& pool, const TermOp& op,
                   const BindingFrame& frame, ValueStore* store, Value* out) {
  switch (op.kind) {
    case TermOp::Kind::kSlot:
#ifndef NDEBUG
      GDLOG_CHECK(frame.IsBound(op.index)) << "read of an unbound slot";
#endif
      *out = frame.Get(op.index);
      return true;
    case TermOp::Kind::kConst:
      *out = op.constant;
      return true;
    default:
      return EvalTerm(pool, op.index, frame, store, out);
  }
}

// ---------------------------------------------------------------------------
// Compiled literals
// ---------------------------------------------------------------------------

struct CompiledScan {
  PredicateId pred = kNoPredicate;
  std::vector<uint32_t> arg_terms;   // one CTerm per column
  std::vector<uint32_t> bound_cols;  // columns evaluable before the scan
  int index_id = -1;                 // relation index; -1 = full scan
  bool negated = false;
  // Read ops for the probe key, one per bound column, in bound_cols order.
  std::vector<TermOp> key_ops;
  // One op per column. Checks of slots bound before the scan and of
  // constants come first; binds, checks of slots this scan binds, and
  // general terms follow in column order.
  std::vector<TermOp> col_ops;
  // Slots the kBind ops bind (flagged once per scan invocation).
  std::vector<uint32_t> bind_slots;
  // Some column is a kTerm op, so a row may push trail entries.
  bool has_term_op = false;
  // Among positive same-clique atoms of this plan: occurrence number used
  // for seminaive delta variants; kNoOccurrence otherwise.
  static constexpr uint32_t kNoOccurrence = UINT32_MAX;
  uint32_t clique_occurrence = kNoOccurrence;
  // Dense per-rule id of the body atom this scan compiles (stable across
  // the generator, delta, and post plan variants of one rule) — the key
  // the executor's per-goal cardinality counters are indexed by for
  // EXPLAIN ANALYZE. kNoGoal for negated scans and subplan scans.
  static constexpr uint32_t kNoGoal = UINT32_MAX;
  uint32_t goal_id = kNoGoal;
};

struct CompiledCompare {
  ComparisonOp op = ComparisonOp::kEq;
  uint32_t lhs = 0, rhs = 0;  // pool indices
  TermOp lhs_op, rhs_op;      // read ops for lhs and rhs
  // kEq with one statically-unbound side that is a bare variable becomes
  // an assignment of the evaluated other side.
  bool is_assignment = false;
  uint32_t assign_slot = 0;
  TermOp value_op;  // the other side's read op, evaluated when assigning
};

struct CompiledLiteral {
  enum class Kind : uint8_t { kScan, kCompare, kNotExists };
  Kind kind = Kind::kScan;
  CompiledScan scan;
  CompiledCompare cmp;
  std::vector<CompiledLiteral> sub;  // kNotExists subplan
};

// ---------------------------------------------------------------------------
// Compiled rules
// ---------------------------------------------------------------------------

struct ChoiceSpec {
  uint32_t left_term = 0;   // CTerm (tuples for compound keys)
  uint32_t right_term = 0;
  // One read op per side component, flattened as EvalTermComponents
  // flattens: a constructor's arguments are the components, any other
  // term is one. Every slot they read is bound at the firing.
  std::vector<TermOp> left_ops;
  std::vector<TermOp> right_ops;
  // True for the two FD goals synthesized by next expansion,
  // choice(I, W) and choice(W, I). The latter is what bounds the number
  // of γ firings (each W value fires at most once — the termination
  // argument behind Theorem 2); neither contributes congruence keys.
  bool from_next = false;
};

struct CompiledRule {
  uint32_t rule_index = 0;        // source clause number (ClauseOf)
  PredicateId head_pred = kNoPredicate;
  std::vector<uint32_t> head_terms;
  std::vector<TermOp> head_ops;  // read ops for head_terms
  uint32_t head_arity = 0;

  std::vector<CTerm> pool;
  uint32_t num_slots = 0;
  std::vector<std::string> slot_names;  // slot -> variable name (debug)

  std::vector<CompiledLiteral> generator;
  std::vector<CompiledLiteral> post;    // next rules: stage-dependent part
  // Seminaive variant plans: delta_plans[d] evaluates the generator with
  // the d-th same-clique atom *leading* the join (the delta atom is the
  // smallest input, so it drives), remaining goals greedily reordered.
  std::vector<std::vector<CompiledLiteral>> delta_plans;

  // Slots bound by the generator, in binding order.
  std::vector<uint32_t> generator_bound_slots;
  // The live subset of generator_bound_slots (variables the head, post
  // plan, choice goals, or extremum actually read) — the candidate
  // snapshot layout for gamma rules. Dead join variables are excluded so
  // congruence is insensitive to them.
  std::vector<uint32_t> snapshot_slots;

  // Choice.
  std::vector<ChoiceSpec> choices;
  bool is_gamma = false;              // has choice goals and/or next
  // Index i of this rule's chosen$i predicate, matching RewriteChoice's
  // numbering over the expanded program; -1 for non-gamma rules.
  int gamma_index = -1;
  // chosen$ bookkeeping for the stable-model checker: V slots in the
  // canonical order of RewriteChoice over the expanded rule.
  std::vector<uint32_t> chosen_slots;

  // Extremum.
  bool has_extremum = false;
  bool is_least = true;
  uint32_t cost_term = 0;
  uint32_t group_term = 0;

  // Next.
  bool is_next = false;
  uint32_t stage_slot = 0;
  int head_stage_pos = -1;

  // Congruence merging for the (R,Q,L) queue: enabled when the choice
  // keys (plus cost and FD-determined attributes) provably determine the
  // whole candidate, reproducing the paper's r-congruence classes.
  bool merge_by_choice_keys = false;
  std::vector<uint32_t> congruence_slots;

  // Recursion shape.
  bool recursive = false;       // generator mentions a same-clique pred
  uint32_t num_clique_occurrences = 0;
  // Aggregate rules inside a recursive clique (extrema in flat rules —
  // the relaxed Kruskal shape) are re-evaluated over full windows.
  bool recompute_full = false;

  // Goal order chosen for the generator plan, one entry per compiled
  // body literal in plan order. Populated only when a JoinPlanner drove
  // the ordering; surfaced in the run report.
  std::vector<PlanDecision> plan_decisions;

  // Number of distinct goal_id values assigned to this rule's positive
  // body atoms — the size of the per-rule GoalStats row.
  uint32_t num_goals = 0;
};

struct CompileProgramOptions {
  // Predicates whose head arguments are call parameters, pre-bound in
  // the frame before the plan runs (used by the stable-model checker for
  // the parameterized aux$ predicates, which are not range-restricted).
  // Matched against the head predicate name.
  std::function<bool(const std::string&)> head_params_bound;
  // Cost-based goal ordering: when set, the "next goal" pick among ready
  // positive atoms is the one with the smallest estimated scan size
  // (filters still run first, delta atoms stay pinned). Null keeps the
  // legacy parser-order pick.
  JoinPlanner* planner = nullptr;
};

/// Compiles every rule of the analyzed program, or refuses it with the
/// first GD001/GD002/GD008 diagnostic (analysis/safety.h) of its first
/// unsafe rule. Predicates are created in `catalog`; scan indices are
/// created on their relations.
/// `analysis.expanded` supplies the canonical choice-goal order for
/// chosen$ bookkeeping.
Result<std::vector<CompiledRule>> CompileProgram(
    const Program& program, const StageAnalysis& analysis, Catalog* catalog,
    ValueStore* store, const CompileProgramOptions& options = {});

}  // namespace gdlog

#endif  // GDLOG_EVAL_RULE_COMPILER_H_
