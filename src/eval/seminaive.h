// Plan execution: nested-loop joins with index probes and seminaive
// delta windowing.
//
// A plan (a CompiledRule's generator or post segment) is enumerated left
// to right; positive scans probe the hash index on their bound columns
// ("assuming availability of indices", Section 6), negated scans perform
// an any-match refutation, NotExists literals run their subplan to the
// first solution.
//
// The walk is specialized per compiled rule without generating code:
//   * Scans run the column ops the compiler resolved (bind a slot, check
//     a slot, check a constant, or match a functor/arithmetic term), so a
//     plain variable costs a store or a compare per row, with no trail
//     entry and no bound-flag test. The probe key is hashed as its read
//     ops evaluate; it is never materialized.
//   * The continuation of each goal is a template parameter, so the
//     per-row path makes no indirect call and builds no closure object;
//     the one indirect call left is Enumerate's per-solution callback.
//   * ApplyRule keeps its scratch across calls (one frame and one flat
//     buffer of arity-wide head rows) and inserts the rows with
//     Relation::InsertBatch, so it allocates only when a buffer grows.
//
// Delta windowing implements the seminaive refinement: pass
// `delta_occurrence = d` to evaluate the variant where the d-th positive
// same-clique atom reads only the delta window, earlier ones read the
// pre-delta region, and later ones read up to the delta's end.
#ifndef GDLOG_EVAL_SEMINAIVE_H_
#define GDLOG_EVAL_SEMINAIVE_H_

#include <functional>
#include <type_traits>
#include <utility>

#include "eval/binding.h"
#include "eval/rule_compiler.h"
#include "obs/metrics.h"
#include "storage/catalog.h"

namespace gdlog {

struct ExecStats {
  uint64_t solutions = 0;   // complete body bindings enumerated
  uint64_t inserts = 0;     // new head tuples
  uint64_t scan_rows = 0;   // rows touched by scans (work measure)
};

/// Actual per-goal cardinality counters for EXPLAIN ANALYZE, accumulated
/// by RunScan for positive scans carrying a goal_id. Everything is plain
/// (each executor writes its own table): the fan-out distribution is
/// staged here, one observation per probe, and its owner flushes it into
/// the registry's goal.fanout histogram.
struct GoalStats {
  uint64_t probes = 0;   // scan invocations (outer-binding probes)
  uint64_t rows = 0;     // rows touched (window rows / index postings)
  uint64_t matches = 0;  // rows matching every term (join fan-out)
  HistogramStage fanout;  // per-probe match count distribution
};

/// A non-owning reference to a solution callback: `bool(BindingFrame&)`,
/// returning false to stop the enumeration. Unlike std::function it never
/// allocates; the referenced callable must outlive the call it is passed
/// to (a lambda written in the argument list does).
class SolutionFn {
 public:
  template <typename F, typename = std::enable_if_t<!std::is_same_v<
                            std::decay_t<F>, SolutionFn>>>
  SolutionFn(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* obj, BindingFrame& frame) -> bool {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(frame);
        }) {}

  bool operator()(BindingFrame& frame) const { return call_(obj_, frame); }

 private:
  void* obj_;
  bool (*call_)(void*, BindingFrame&);
};

/// The plan a rule runs under `delta_occurrence`: its delta-first plan
/// for a delta variant (the Δ atom leads), else the generator.
inline const std::vector<CompiledLiteral>& PlanFor(const CompiledRule& rule,
                                                   uint32_t delta_occurrence) {
  return delta_occurrence < rule.delta_plans.size()
             ? rule.delta_plans[delta_occurrence]
             : rule.generator;
}

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
  /// enumeration. Returns false iff aborted. Re-entrant: a callback or
  /// the negation oracle may enumerate again on this executor.
  bool Enumerate(const CompiledRule& rule,
                 const std::vector<CompiledLiteral>& plan,
                 uint32_t delta_occurrence, BindingFrame* frame,
                 SolutionFn on_solution);

  /// Evaluates a plain rule (no meta behavior) into its head relation.
  /// Returns the number of new tuples; when `attempted` is non-null it
  /// receives the number of head tuples built before duplicate
  /// elimination (attempted - returned = dedup hits).
  size_t ApplyRule(const CompiledRule& rule, uint32_t delta_occurrence,
                   size_t* attempted = nullptr);

  /// Builds the head tuple under `frame` into the rule.head_arity values
  /// at `out`. Returns false if a head term fails to evaluate (an untyped
  /// binding, e.g. arithmetic over a symbol).
  bool BuildHead(const CompiledRule& rule, const BindingFrame& frame,
                 Value* out);

  ExecStats& stats() { return stats_; }
  const ExecStats& stats() const { return stats_; }
  ValueStore* store() { return store_; }
  Catalog* catalog() { return catalog_; }

 private:
  /// Enumerates the plan suffix [lit, end), handing each solution to
  /// `sink` (a callable `bool(BindingFrame&)`).
  template <typename Sink>
  bool Walk(const CompiledRule& rule, const CompiledLiteral* lit,
            const CompiledLiteral* end, uint32_t delta_occurrence,
            BindingFrame* frame, Sink& sink);

  /// Runs one scan, calling `next()` (a callable `bool()`) for each
  /// matching row of a positive scan, or once if a negated scan finds no
  /// witness.
  template <typename Next>
  bool RunScan(const CompiledRule& rule, const CompiledScan& scan,
               uint32_t delta_occurrence, BindingFrame* frame, Next& next);

  /// Runs a scan's column ops on one row; false on a mismatch (the
  /// caller unwinds any trail entries a kTerm op pushed).
  bool MatchRow(const CompiledRule& rule, const CompiledScan& scan,
                const Value* row, BindingFrame* frame);

  bool RunCompare(const CompiledRule& rule, const CompiledCompare& cmp,
                  BindingFrame* frame);

  Catalog* catalog_;
  ValueStore* store_;
  NegationOracle oracle_;
  ExecStats stats_;

  std::vector<std::vector<GoalStats>>* goal_stats_ = nullptr;
  std::vector<ProvPremise>* trail_ = nullptr;

  // ApplyRule's scratch: the frame, the pending head rows (head_arity
  // values each, back to back) and, with provenance, their premises.
  // Each call moves them out and back, so a nested call starts empty and
  // a throw in mid-batch leaves nothing behind.
  BindingFrame apply_frame_;
  std::vector<Value> pending_rows_;
  std::vector<ProvPremise> pending_prov_;
};

}  // namespace gdlog

#endif  // GDLOG_EVAL_SEMINAIVE_H_
