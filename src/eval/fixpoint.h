// Fixpoint drivers: the Choice Fixpoint (Section 2) and the Alternating
// Stage-Choice Fixpoint (Section 4), unified over one per-clique loop.
//
// Cliques are saturated in dependency order (stratum by stratum). Within
// a clique the driver alternates:
//
//   Saturate (Q∞)  — seminaive rounds over the clique's flat rules; new
//                    tuples also flow into the gamma rules' candidate
//                    queues (the paper's insertion into D_r);
//   GammaPhase (γ) — non-next choice rules drain every admissible
//                    candidate (each drain step is a γ application whose
//                    interleaving with Q∞ is immaterial because their
//                    saturation adds only candidates, never invalidates
//                    them); next rules fire exactly ONE candidate — the
//                    best live queue entry passing its post conditions
//                    and choice FDs — then the stage counter advances.
//
// The loop ends when γ produces nothing. For stage-stratified programs
// this computes a stable model (Theorem 1); each Pop/fire is O(log |Q|),
// giving the Section 6 complexity bounds.
#ifndef GDLOG_EVAL_FIXPOINT_H_
#define GDLOG_EVAL_FIXPOINT_H_

#include <memory>
#include <span>
#include <vector>

#include "analysis/stage.h"
#include "common/guardrails.h"
#include "common/status.h"
#include "eval/choice_runtime.h"
#include "eval/flat_table.h"
#include "eval/rql.h"
#include "eval/rule_compiler.h"
#include "eval/seminaive.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"

namespace gdlog {

struct EvalOptions {
  /// Perturbs equal-cost / FIFO candidate ordering; different seeds
  /// explore different stable models. 0 = deterministic program order.
  uint64_t choice_seed = 0;
  /// Allow congruence-merge insertion where the compiler proved it safe
  /// (the paper's r-congruence classes). Off = full lazy-deletion queues.
  bool use_merge_congruence = true;
  /// Use priority-queue retrieval for least/most (Section 6). Off = the
  /// naive O(|Q|) linear re-scan per retrieval — the ablation baseline.
  bool use_priority_queue = true;
  /// Use the seminaive refinement (delta-driven rule variants). Off =
  /// naive evaluation: every saturation round re-runs every recursive
  /// rule over full windows — the ablation baseline for the abstract's
  /// "through seminaive refinements ... low asymptotic complexity".
  bool use_seminaive = true;
  /// Cost-based join planning (goal reordering by boundness + estimated
  /// selectivity). Off = parser order with filters-first — the planner
  /// ablation baseline. Consumed by Engine when compiling; the driver
  /// itself only echoes it into reports.
  bool use_join_planner = true;
  /// Feed static-analysis cardinality upper bounds (analysis/absint) to
  /// the join planner as priors for empty IDB relations, replacing the
  /// neutral 256-row default. Pure function of program + loaded EDB, so
  /// planning stays deterministic. Off = the priors ablation baseline.
  /// No effect when use_join_planner is off.
  bool use_cardinality_priors = true;
};

struct FixpointStats {
  uint64_t saturation_rounds = 0;
  uint64_t gamma_firings = 0;
  uint64_t stages_assigned = 0;
  // Why the run ended (guardrails): kCompleted is a genuine fixpoint,
  // anything else a bounded stop with the partial state retained.
  TerminationReason termination = TerminationReason::kCompleted;
  uint64_t guard_checks = 0;          // limit/cancel polls performed
  uint64_t peak_memory_bytes = 0;     // MemoryBudget high-water (0 = untracked)
  // Wall time split between the two alternating phases; collected only
  // when observability is enabled (0 otherwise).
  uint64_t saturate_ns = 0;
  uint64_t gamma_ns = 0;
  ExecStats exec;
  CandidateQueueStats queues;  // aggregated over all gamma rules
};

/// Per-rule evaluation profile, indexed by CompiledRule::rule_index.
/// Counts are always maintained (they are O(1) per rule application);
/// wall_ns is collected only when observability is enabled.
struct RuleProfile {
  std::string head;            // "pred/arity"; empty = no compiled rule
  const char* kind = "";       // "plain" | "aggregate" | "gamma" | "next"
  bool recursive = false;
  uint64_t invocations = 0;    // plan evaluations (delta variants count)
  uint64_t firings = 0;        // γ firings (gamma rules only)
  uint64_t tuples = 0;         // new head tuples produced
  uint64_t dedup_hits = 0;     // head tuples rejected as duplicates
  uint64_t candidates = 0;     // queue insertions (gamma rules only)
  uint64_t wall_ns = 0;
  Histogram* latency = nullptr;  // per-application latency (metrics mode)
};

class FixpointDriver {
 public:
  /// `obs` carries the (optional) metrics registry and tracer; default
  /// both null, in which case every instrumented site reduces to one
  /// branch.
  /// `guard` (optional) is polled at fixpoint-iteration and gamma-step
  /// boundaries; when a check trips, Run returns the guard's status with
  /// all statistics for the partial evaluation filled in.
  FixpointDriver(Catalog* catalog, ValueStore* store,
                 const StageAnalysis* analysis,
                 std::vector<CompiledRule> rules, EvalOptions options,
                 ObsContext obs = {}, RunGuard* guard = nullptr);

  /// Evaluates the whole program to its (choice) fixpoint, or to the
  /// first guard stop. Statistics are valid either way.
  Status Run();

  const ChoiceRuntime& choice_runtime() const { return choice_; }
  const std::vector<CompiledRule>& rules() const { return rules_; }
  const FixpointStats& stats() const { return stats_; }
  /// The live run totals every flight-recorder event carries. Reads
  /// plain counters: call it on the evaluation thread only.
  RunCounters run_counters() const;
  const ExecStats& exec_stats() const { return exec_stats_view_; }
  /// Indexed by rule_index; entries with an empty `head` had no compiled
  /// rule (program facts).
  const std::vector<RuleProfile>& rule_profiles() const { return profiles_; }

  /// Actual per-goal cardinalities, indexed [rule_index][goal_id]
  /// (matching PlanDecision::goal_id). Empty rows when metrics are
  /// disabled — the EXPLAIN ANALYZE source of truth otherwise.
  const std::vector<std::vector<GoalStats>>& goal_stats() const {
    return goal_stats_;
  }

  /// The choice-audit trail (one entry per γ firing), or nullptr when
  /// the catalog's provenance column is off.
  const ChoiceAuditTrail* choice_audit() const { return audit_.get(); }

  /// Sums candidate-queue statistics over every gamma rule.
  CandidateQueueStats AggregateQueueStats() const;
  /// Queue statistics of one gamma rule (by gamma index); nullptr if the
  /// index has no queue.
  const CandidateQueueStats* QueueStats(int gamma_index) const;

 private:
  struct GammaState {
    const CompiledRule* rule;
    std::unique_ptr<CandidateQueue> queue;
    bool merge = false;  // effective congruence-merge mode
    // For non-next extrema rules: first-seen (= true) extremum per group,
    // keyed by the group term's components.
    FlatTable group_best;
    size_t group_charged = 0;  // MemoryBudget charge for group_best
  };

  struct CliqueCtx {
    std::vector<const CompiledRule*> plain;      // no meta behavior
    std::vector<const CompiledRule*> aggregate;  // extrema, non-gamma
    std::vector<GammaState*> gammas;
    std::vector<PredicateId> relations;  // clique head relations
    int64_t stage_counter = 0;
    bool has_next = false;
  };

  Status EvalClique(uint32_t scc);
  /// Polls the guard (no-op OK when no guard is installed). `probe` names
  /// the boundary for fault injection.
  Status GuardCheck(std::string_view probe);
  /// Seminaive rounds until no clique relation grows or the guard trips.
  Status Saturate(CliqueCtx* ctx);
  /// One γ application; false when the clique is exhausted.
  bool GammaPhase(CliqueCtx* ctx);

  void EvalPlain(const CompiledRule& rule, uint32_t delta_occurrence);
  void EvalAggregate(const CompiledRule& rule);
  void InsertCandidates(GammaState* g, uint32_t delta_occurrence);
  /// Pushes the generator solution `f` into g's queue (Section 6's
  /// insertion into D_r), through the reused key/snapshot buffers.
  void PushCandidate(GammaState* g, const BindingFrame& f);

  /// Restores a candidate snapshot into `frame`.
  void RestoreSnapshot(const CompiledRule& rule,
                       std::span<const Value> snapshot, BindingFrame* frame);

  /// Attempts to fire one popped candidate of a next rule; true on fire.
  /// `audit` (audit mode only, else null) accumulates per-candidate
  /// rejections and, on fire, receives the witness/stage/cost fields.
  bool TryFireNext(CliqueCtx* ctx, GammaState* g, const Candidate& cand,
                   ChoiceAuditEntry* audit);

  /// Pops a non-next gamma rule's queue until one candidate passes the
  /// extremum filter (when the rule has one) and the choice FDs, and
  /// fires it: at most one firing per call, so γ alternates with
  /// saturation. Returns the number of firings (0 or 1).
  size_t DrainChoiceRule(GammaState* g);

  /// Clock for profile timing: tracer time when tracing (so spans and
  /// profiles share an epoch), raw steady_clock otherwise.
  uint64_t ObsNowNs() const;
  /// Closes one timed rule application: profile wall time, latency
  /// histogram, and a sampled trace span.
  void RecordApply(RuleProfile* prof, uint64_t start_ns, const char* cat);
  /// Appends an audit entry and re-charges the trail to the MemoryBudget.
  void AddAuditEntry(ChoiceAuditEntry entry);
  /// Moves `*charged` to `bytes` in the run's MemoryBudget (no-op
  /// without one).
  void Charge(size_t* charged, size_t bytes);
  /// Publishes end-of-run totals into the metrics registry.
  void PublishMetrics();
  /// Records one flight-recorder event stamped with run_counters().
  void Record(FlightEventKind kind, int64_t a0, int64_t a1);

  Catalog* catalog_;
  ValueStore* store_;
  const StageAnalysis* analysis_;
  std::vector<CompiledRule> rules_;
  EvalOptions options_;

  PlanExecutor exec_;
  ChoiceRuntime choice_;
  // Scratch reused across candidates, so the γ path allocates only when
  // a buffer first grows: the generator frame and the key/snapshot
  // buffers InsertCandidates fills; the firing frame, head, extremum
  // group and provenance buffers TryFireNext and DrainChoiceRule fill.
  BindingFrame gen_frame_;
  std::vector<Value> key_buf_;
  std::vector<Value> snapshot_buf_;
  BindingFrame fire_frame_;
  std::vector<Value> head_buf_;
  std::vector<Value> group_buf_;
  std::vector<ProvPremise> post_prov_;
  std::vector<ProvPremise> prems_buf_;
  std::vector<std::unique_ptr<GammaState>> gamma_states_;  // by gamma_index
  FixpointStats stats_;
  ExecStats exec_stats_view_;  // snapshot filled when Run completes

  ObsContext obs_;
  bool obs_enabled_ = false;  // == obs_.enabled(), cached for the hot path
  RunGuard* guard_ = nullptr;
  std::vector<RuleProfile> profiles_;  // by rule_index

  // EXPLAIN ANALYZE actuals, indexed [rule_index][goal_id]; rows are
  // sized (enabling counting) only when metrics are on.
  std::vector<std::vector<GoalStats>> goal_stats_;
  // Cached metric handles (null when metrics are off).
  Histogram* delta_rows_hist_ = nullptr;   // per-relation delta rows/round
  Histogram* pops_per_fire_hist_ = nullptr;  // choice pops per γ firing
  Counter* admissible_ = nullptr;          // candidates passing Admissible
  Counter* inadmissible_ = nullptr;        // candidates rejected by FDs
  bool trip_recorded_ = false;  // the guard trip reached the recorder

  // Provenance: on iff the catalog's provenance column is (Engine enables
  // it from EngineOptions::provenance). Annotations are pure metadata —
  // evaluation order, insert order, and the fixpoint are bit-identical
  // with it off. `prov_trail_` is the executor's premise trail; `audit_`
  // (one ChoiceAuditEntry per γ firing) is allocated iff it is on.
  bool prov_ = false;
  std::vector<ProvPremise> prov_trail_;
  std::unique_ptr<ChoiceAuditTrail> audit_;
  size_t audit_charged_ = 0;  // MemoryBudget charge for the trail
};

}  // namespace gdlog

#endif  // GDLOG_EVAL_FIXPOINT_H_
