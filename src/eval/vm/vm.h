// Bytecode VM: executes lowered rule plans (eval/ir) over the concrete
// Relation/Index storage with fused scan/filter/probe/emit ops.
//
// The VM is an exact drop-in for PlanExecutor's interpreter loop: it
// runs on the same live BindingFrame (so driver callbacks observe
// identical binding state), buffers inserts the same way, charges the
// same GoalStats/ExecStats counters, and pushes the same provenance
// premises. PlanCode is immutable after Compile; every mutable
// execution state lives on the caller's stack.
//
// The interpreter (eval/seminaive) stays the semantics oracle: rules
// the lowering rejects simply never appear in the ProgramCode map and
// keep interpreting. See docs/VM.md.
#ifndef GDLOG_EVAL_VM_VM_H_
#define GDLOG_EVAL_VM_VM_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "eval/ir/ir.h"
#include "eval/seminaive.h"

namespace gdlog {
namespace vm {

/// One lowered plan, ready to run: IR ops plus resolved storage
/// pointers (Relation and Index addresses are stable — the catalog owns
/// them behind unique_ptrs).
struct PlanCode {
  struct Level {
    CompiledLiteral::Kind kind = CompiledLiteral::Kind::kScan;
    // kScan.
    const CompiledScan* scan = nullptr;  // windows, goal id, identity
    const Relation* rel = nullptr;
    const Index* index = nullptr;        // null = full scan
    std::vector<ir::KeyOp> keys;
    uint32_t key_offset = 0;             // slice of the per-run key buffer
    std::vector<ir::ColOp> cols;
    /// Fused row ops: `cols` split into typed arrays so the match loop
    /// runs compare-then-bind without per-column dispatch. Legal only
    /// when the verdict and bindings are order-independent — no kMatch
    /// op (may bind pattern variables mid-row and short-circuit) and no
    /// kCompareSlot reading a slot bound earlier in the same row
    /// (repeated variable, e.g. e(X, X)); `generic` keeps those on the
    /// ordered `cols` interpretation with the mark/undo pair.
    struct SlotCol {
      uint32_t col = 0;
      uint32_t slot = 0;
    };
    struct ConstCol {
      uint32_t col = 0;
      Value constant;
    };
    std::vector<SlotCol> eq_slots;
    std::vector<ConstCol> eq_consts;
    std::vector<SlotCol> binds;
    bool generic = false;
    /// Slots the kBind ops write. They bypass the frame trail
    /// (BindScratch) and are cleared explicitly on every row exit, so
    /// the per-row Mark/Bind/UndoTo bookkeeping disappears from the hot
    /// loop; kMatch ops still bind through the trail, so rows of a
    /// generic level keep the mark/undo pair around the match.
    std::vector<uint32_t> bind_slots;
    bool has_match = false;
    /// Static half of the goal-stats gate (negated / kNoGoal folded).
    bool track_goal = false;
    /// Every probe-key op is kSlot: the key loop needs no dispatch and
    /// cannot fail.
    bool keys_all_slot = false;
    // kCompare.
    const CompiledCompare* cmp = nullptr;
    /// Assignment with assign_slot statically bound on arrival: pure
    /// equality test. Unbound: scratch-bind, cleared after the subtree.
    bool assign_bound = false;
    /// Operand micro-ops from the lowering (see ir::LevelIR).
    ir::KeyOp cmp_lhs, cmp_rhs, cmp_value;
    /// Fused filter: non-assignment compare levels that immediately
    /// followed this (non-negated) scan, folded into the row loop. A
    /// failing filter behaves exactly like the standalone level — the
    /// row is already a match (goal stats count it), it just never
    /// recurses — so fusing is unobservable apart from the saved
    /// dispatch.
    struct FusedCmp {
      ComparisonOp op = ComparisonOp::kEq;
      ir::KeyOp lhs, rhs;
    };
    std::vector<FusedCmp> filters;
    // kNotExists.
    std::unique_ptr<PlanCode> sub;
  };
  const CompiledRule* rule = nullptr;
  std::vector<Level> levels;
  uint32_t key_buffer_size = 0;  // sum of keys.size() over levels
  /// No kEval/kMatch op anywhere in the plan (keys, filters, compare
  /// operands, subplans): execution never calls EvalTerm/MatchTerm, so
  /// nothing reads the frame's bound flags and scratch binds can skip
  /// flag maintenance (BindValueOnly, no per-row clears). Emit-path
  /// runs additionally require RuleCode::head_pure — a kEval head term
  /// reads the flags through EvalTerm. Driver-callback runs
  /// (ExecutePlan) never use this: callbacks may evaluate terms.
  bool pure_slots = false;
};

/// Per-rule emit program for the ApplyRule fast path.
struct RuleCode {
  const CompiledRule* rule = nullptr;
  std::vector<ir::HeadOp> head_ops;
  bool head_pure = false;  // no kEval head op (see PlanCode::pure_slots)
};

/// The compiled program: plan address -> bytecode. PlanExecutor keys
/// the dispatch on the address of the CompiledRule plan vector it was
/// handed, so lowered and rejected rules coexist transparently.
struct ProgramCode {
  const PlanCode* Find(const std::vector<CompiledLiteral>* plan) const {
    const auto it = plans.find(plan);
    return it == plans.end() ? nullptr : it->second.get();
  }
  const RuleCode* FindRule(const CompiledRule* rule) const {
    const auto it = rules.find(rule);
    return it == rules.end() ? nullptr : &it->second;
  }
  size_t MemoryBytes() const;

  std::unordered_map<const void*, std::unique_ptr<PlanCode>> plans;
  std::unordered_map<const CompiledRule*, RuleCode> rules;
  ir::LoweringReport report;
};

/// Resolves storage pointers and registers every plan of `pir` (which
/// must outlive the result, along with the CompiledRule vector it
/// aliases).
ProgramCode Compile(const ir::ProgramIR& pir, const Catalog& catalog);

/// Execution context, assembled by PlanExecutor from its own state so
/// both backends share one set of counters and one provenance trail.
struct ExecCtx {
  Catalog* catalog = nullptr;
  ValueStore* store = nullptr;
  ExecStats* stats = nullptr;
  std::vector<std::vector<GoalStats>>* goal_stats = nullptr;
  std::vector<ProvPremise>* trail = nullptr;
};

/// Enumerates `code` extending `frame`, calling `on_solution` per
/// complete solution. Exact contract of PlanExecutor::Enumerate:
/// returns false iff aborted.
bool ExecutePlan(const PlanCode& code, uint32_t delta_occurrence,
                 BindingFrame* frame, const ExecCtx& ctx,
                 const std::function<bool(BindingFrame&)>& on_solution);

/// ApplyRule emission fast path: enumerates and appends head tuples to
/// `pending` (flat, stride head_arity). Rows whose head fails to
/// evaluate are skipped, like BuildHead. When `pending_prov` is
/// non-null, one premise vector per emitted row is appended. `emitted`
/// receives the row count (ApplyRule's `attempted`).
void ExecuteEmit(const PlanCode& code, const RuleCode& rcode,
                 uint32_t delta_occurrence, BindingFrame* frame,
                 const ExecCtx& ctx, std::vector<Value>* pending,
                 std::vector<std::vector<ProvPremise>>* pending_prov,
                 size_t* emitted);

}  // namespace vm
}  // namespace gdlog

#endif  // GDLOG_EVAL_VM_VM_H_
