// Chosen-tuple memoization: the runtime realization of the paper's
// chosen/diffChoice predicates.
//
// Per Section 2, "an efficient implementation for choice programs only
// requires memorization of the chosen predicates; from these, the
// diffChoice predicates can be generated on-the-fly". Each choice goal
// choice(L, R) of a gamma rule owns one FlatTable from L's value to R's
// value (left→right only: the FD is checked from its left side). A
// tuple-valued side — the W of next's synthesized choice(I, W) and
// choice(W, I), or a compound key such as choice((X, C), Y) — is stored
// as its components, each read from the firing's slots by the read op
// the compiler resolved (ChoiceSpec::left_ops/right_ops), so a check
// interns nothing. A candidate firing is admissible iff for every goal
// the table either lacks L or maps it to exactly R. The rule's own goals
// are checked first: next's choice(I, W) never rejects (I is a fresh
// stage) and choice(W, I) rarely does. Firing commits all pairs and
// records the chosen$ tuple for the stable-model checker.
#ifndef GDLOG_EVAL_CHOICE_RUNTIME_H_
#define GDLOG_EVAL_CHOICE_RUNTIME_H_

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

  /// Registers a gamma rule; returns its handle (== rule.gamma_index).
  int Register(const CompiledRule& rule);

  /// True iff firing `rule` under `frame` violates no FD recorded so far.
  /// All choice-goal variables must be bound.
  bool Admissible(const CompiledRule& rule, const BindingFrame& frame);

  /// Commits the FD pairs of a firing and records its chosen$ tuple.
  /// Call only after Admissible returned true under the same frame.
  void Commit(const CompiledRule& rule, const BindingFrame& frame);

  /// The chosen$ tuples recorded for gamma rule `gamma_index`, each laid
  /// out per CompiledRule::chosen_slots.
  std::vector<std::vector<Value>> ChosenTuples(int gamma_index) const;

  /// Charges the FD tables and chosen tuples to `budget` (which must
  /// outlive this runtime), now and whenever one of them grows.
  void set_memory_budget(MemoryBudget* budget);

 private:
  struct RuleMemo {
    // One table per choice goal (parallel to CompiledRule::choices):
    // left components -> right components.
    std::vector<FlatTable> goals;
    uint32_t chosen_width = 0;
    size_t num_chosen = 0;
    std::vector<Value> chosen;  // chosen$ tuples, chosen_width each
  };

  /// Reads goal `spec`'s side components into left_ / right_; false
  /// when a general term fails to evaluate.
  bool ReadPair(const CompiledRule& rule, const ChoiceSpec& spec,
                const BindingFrame& frame);
  /// True when goal `g`'s FD table lacks the firing's left side or maps
  /// it to exactly its right side.
  bool Satisfies(const CompiledRule& rule, const FlatTable& fd, size_t g,
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
