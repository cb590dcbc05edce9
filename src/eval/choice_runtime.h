// Chosen-tuple memoization: the runtime realization of the paper's
// chosen/diffChoice predicates.
//
// Per Section 2, "an efficient implementation for choice programs only
// requires memorization of the chosen predicates; from these, the
// diffChoice predicates can be generated on-the-fly". A choice goal
// choice(L, R) of a gamma rule is the FD L -> R over the rule's firings,
// checked from its left side. Register decides once per rule which goals
// can ever reject (DESIGN §5, decision 16); each of those owns one
// FlatTable from L's value to R's value. A goal cannot reject when every
// component of both sides evaluates (no arithmetic) and its left side
// reads, each as a bare component,
//   - the stage variable, as next's synthesized choice(I, W) does: every
//     firing takes a fresh stage; or
//   - every slot of the queue's class key: equal left sides are then one
//     congruence class, and L_r lets a class fire once.
// So L enforces those FDs already; Prim's three goals, say, keep no
// table. A tuple-valued side — the W of next's choice(I, W) and
// choice(W, I), or a compound key such as choice((X, C), Y) — is stored
// as its components, each read from the firing's slots by the read op
// the compiler resolved (ChoiceSpec::left_ops/right_ops), so a check
// interns nothing. A candidate firing is admissible iff every kept table
// either lacks its L or maps it to exactly R; the rule's own goals are
// checked before next's choice(W, I). Firing commits the kept pairs and
// records the chosen$ tuple for the stable-model checker.
#ifndef GDLOG_EVAL_CHOICE_RUNTIME_H_
#define GDLOG_EVAL_CHOICE_RUNTIME_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "eval/flat_table.h"
#include "eval/rule_compiler.h"

namespace gdlog {

class MemoryBudget;

class ChoiceRuntime {
 public:
  explicit ChoiceRuntime(ValueStore* store) : store_(store) {}
  /// Releases the MemoryBudget charge, if any.
  ~ChoiceRuntime();
  ChoiceRuntime(const ChoiceRuntime&) = delete;
  ChoiceRuntime& operator=(const ChoiceRuntime&) = delete;

  /// Registers a gamma rule whose queue keys its congruence classes by
  /// the values of the slots `class_key` (CompiledRule::congruence_slots
  /// in merge mode, else snapshot_slots); returns its handle
  /// (== rule.gamma_index).
  int Register(const CompiledRule& rule, std::span<const uint32_t> class_key);

  /// True iff firing `rule` under `frame` violates no FD recorded so far.
  /// All choice-goal variables must be bound.
  bool Admissible(const CompiledRule& rule, const BindingFrame& frame);

  /// Commits the kept FD pairs of a firing and records its chosen$ tuple.
  /// Call only after Admissible returned true under the same frame.
  void Commit(const CompiledRule& rule, const BindingFrame& frame);

  /// The chosen$ tuples recorded for gamma rule `gamma_index`, each laid
  /// out per CompiledRule::chosen_slots.
  std::vector<std::vector<Value>> ChosenTuples(int gamma_index) const;

  /// Charges the FD tables and chosen tuples to `budget` (which must
  /// outlive this runtime), now and whenever one of them grows.
  void set_memory_budget(MemoryBudget* budget);

 private:
  // The FD table of a choice goal that can reject: left components ->
  // right components.
  struct GoalTable {
    uint32_t goal = 0;  // index into CompiledRule::choices
    FlatTable fd;
  };
  struct RuleMemo {
    std::vector<GoalTable> tables;  // in check order
    uint32_t chosen_width = 0;
    size_t num_chosen = 0;
    std::vector<Value> chosen;  // chosen$ tuples, chosen_width each
  };

  /// Reads goal `spec`'s side components into left_ / right_; false
  /// when a general term fails to evaluate.
  bool ReadPair(const CompiledRule& rule, const ChoiceSpec& spec,
                const BindingFrame& frame);
  /// True when `t`'s FD table lacks the firing's left side or maps it to
  /// exactly its right side.
  bool Satisfies(const CompiledRule& rule, const GoalTable& t,
                 const BindingFrame& frame);
  size_t ApproxBytes() const;
  void Recharge();

  ValueStore* store_;
  std::vector<RuleMemo> memos_;  // by gamma_index
  // Scratch components, sized by Register for the widest side.
  std::vector<Value> left_, right_;
  MemoryBudget* budget_ = nullptr;
  size_t charged_ = 0;
};

}  // namespace gdlog

#endif  // GDLOG_EVAL_CHOICE_RUNTIME_H_
