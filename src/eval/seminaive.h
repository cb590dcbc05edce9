// Plan execution: nested-loop joins with index probes and seminaive
// delta windowing.
//
// A plan (a CompiledRule's generator or post segment) is enumerated left
// to right; positive scans probe the hash index on their bound columns
// ("assuming availability of indices", Section 6), negated scans perform
// an any-match refutation, NotExists literals run their subplan to the
// first solution.
//
// Delta windowing implements the seminaive refinement: pass
// `delta_occurrence = d` to evaluate the variant where the d-th positive
// same-clique atom reads only the delta window, earlier ones read the
// pre-delta region, and later ones read up to the delta's end.
#ifndef GDLOG_EVAL_SEMINAIVE_H_
#define GDLOG_EVAL_SEMINAIVE_H_

#include <functional>
#include <utility>

#include "eval/binding.h"
#include "eval/rule_compiler.h"
#include "storage/catalog.h"

namespace gdlog {

class Histogram;

struct ExecStats {
  uint64_t solutions = 0;   // complete body bindings enumerated
  uint64_t inserts = 0;     // new head tuples
  uint64_t scan_rows = 0;   // rows touched by scans (work measure)
};

/// Actual per-goal cardinality counters for EXPLAIN ANALYZE, accumulated
/// by RunScan for positive scans carrying a goal_id. Counters are plain
/// (each executor writes its own table); the fan-out histogram, when
/// set, is a shared registry metric.
struct GoalStats {
  uint64_t probes = 0;   // scan invocations (outer-binding probes)
  uint64_t rows = 0;     // rows touched (window rows / index postings)
  uint64_t matches = 0;  // rows matching every term (join fan-out)
  Histogram* fanout = nullptr;  // per-probe match count distribution
};

class PlanExecutor {
 public:
  PlanExecutor(Catalog* catalog, ValueStore* store)
      : catalog_(catalog), store_(store) {}

  /// Membership oracle for negated goals, used by the stable-model
  /// checker to test negation against a *fixed* model instead of the
  /// growing database. Negated scans must be ground when an oracle is
  /// installed.
  using NegationOracle = std::function<bool(PredicateId, TupleView)>;
  void set_negation_oracle(NegationOracle oracle) {
    oracle_ = std::move(oracle);
  }

  /// Per-goal cardinality sink, indexed [rule_index][goal_id]. Rows
  /// shorter than a rule's goal count (or missing) disable counting for
  /// that rule. Not owned.
  void set_goal_stats(std::vector<std::vector<GoalStats>>* table) {
    goal_stats_ = table;
  }

  /// Provenance premise trail (not owned; null = provenance off). While
  /// set, every positive top-level scan pushes its matched (pred, row)
  /// before descending and pops it on the way back, so at each complete
  /// solution the trail holds exactly one premise per positive goal, in
  /// plan order. Negated scans and NotExists subplans contribute nothing
  /// (the subplan enumeration runs with the trail detached).
  void set_provenance_trail(std::vector<ProvPremise>* trail) {
    trail_ = trail;
  }
  std::vector<ProvPremise>* provenance_trail() { return trail_; }

  /// Enumerates all solutions of `plan` extending `frame`, invoking
  /// `on_solution` for each; the callback returns false to abort the
  /// enumeration. Returns false iff aborted.
  bool Enumerate(const CompiledRule& rule,
                 const std::vector<CompiledLiteral>& plan,
                 uint32_t delta_occurrence, BindingFrame* frame,
                 const std::function<bool(BindingFrame&)>& on_solution);

  /// Evaluates a plain rule (no meta behavior) into its head relation.
  /// Returns the number of new tuples; when `attempted` is non-null it
  /// receives the number of head tuples built before duplicate
  /// elimination (attempted - returned = dedup hits).
  size_t ApplyRule(const CompiledRule& rule, uint32_t delta_occurrence,
                   size_t* attempted = nullptr);

  /// Builds the head tuple under `frame` into `out`. Returns false if a
  /// head term fails to evaluate (engine bug for compiled rules).
  bool BuildHead(const CompiledRule& rule, const BindingFrame& frame,
                 std::vector<Value>* out);

  ExecStats& stats() { return stats_; }
  const ExecStats& stats() const { return stats_; }
  ValueStore* store() { return store_; }
  Catalog* catalog() { return catalog_; }

 private:
  bool RunFrom(const CompiledRule& rule,
               const std::vector<CompiledLiteral>& plan, size_t idx,
               uint32_t delta_occurrence, BindingFrame* frame,
               const std::function<bool(BindingFrame&)>& on_solution);

  bool RunScan(const CompiledRule& rule, const CompiledScan& scan,
               uint32_t delta_occurrence, BindingFrame* frame,
               const std::function<bool()>& on_match);

  bool RunCompare(const CompiledRule& rule, const CompiledCompare& cmp,
                  BindingFrame* frame);

  Catalog* catalog_;
  ValueStore* store_;
  NegationOracle oracle_;
  ExecStats stats_;

  std::vector<std::vector<GoalStats>>* goal_stats_ = nullptr;
  std::vector<ProvPremise>* trail_ = nullptr;
};

}  // namespace gdlog

#endif  // GDLOG_EVAL_SEMINAIVE_H_
