// Fixpoint drivers: the Choice Fixpoint (Section 2) and the Alternating
// Stage-Choice Fixpoint (Section 4), unified over one per-clique loop.
//
// Cliques are saturated in dependency order (stratum by stratum). Within
// a clique the driver alternates:
//
//   Saturate (Q∞)  — seminaive rounds (sweeps) over the clique's flat
//                    rules; new tuples also flow into the gamma rules'
//                    candidate queues (the paper's insertion into D_r);
//   GammaPhase (γ) — one firing, by Section 6's retrieval for both γ
//                    kinds (PopAndFire): pop a rule's best live candidate
//                    and fire it, or move it to R and pop the next. A
//                    candidate fires when its post plan (a next rule's,
//                    run with the stage bound; empty for choice rules)
//                    has a solution that passes the choice FDs and whose
//                    head builds. Choice rules (no next) go first, each
//                    candidate passing the per-group extremum filter when
//                    the rule has one; the interleaving with Q∞ is
//                    immaterial because saturation adds only candidates,
//                    never invalidates them. When none fires, a next rule
//                    fires and the stage counter advances. Next rules
//                    wait until some stage value is in play, since a
//                    stage I needs its predecessor I - 1.
//
// The loop ends when γ produces nothing. For stage-stratified programs
// this computes a stable model (Theorem 1); each Pop/fire is O(log |Q|),
// giving the Section 6 complexity bounds.
//
// A stage costs what Section 6 charges it, decided once per clique:
//   * Chained deltas. A relation that only flat rules write and only γ
//     generators read (Prim's new_g, Huffman's feasible) has its delta
//     widened over each sweep's own appends before the generators run,
//     so its rows reach Q in the sweep that derives them: Prim runs one
//     sweep per stage, not two. A relation on a flat cycle keeps
//     round-by-round deltas.
//   * No empty rounds. When no rule Saturate evaluates reads a relation
//     a γ rule writes (sort, matching), a firing derives nothing for
//     Saturate, and the loop fires without saturating in between.
//   * Observability off the per-firing path. Rule applications and
//     Saturate calls are timed by sampling; FD outcomes, pops per firing,
//     delta sizes and goal fan-outs are counted in plain fields and
//     flushed into the registry in batches; per-round and per-firing
//     flight events are thinned. Final counts stay exact.
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
};

struct FixpointStats {
  uint64_t saturation_rounds = 0;
  uint64_t gamma_firings = 0;
  uint64_t stages_assigned = 0;
  // Wall time split between the two alternating phases; collected only
  // when observability is enabled (0 otherwise). saturate_ns sums the
  // sampled Saturate calls, each weighted by the calls it stands for;
  // gamma_ns is the remainder of the cliques' stage loops.
  uint64_t saturate_ns = 0;
  uint64_t gamma_ns = 0;
  ExecStats exec;
  CandidateQueueStats queues;  // aggregated over all gamma rules
};

/// Per-rule evaluation profile, indexed by CompiledRule::rule_index.
/// Counts are always maintained (they are O(1) per rule application);
/// wall_ns is collected only when observability is enabled, from the
/// sampled applications (see ObsOptions::sample_every), each weighted
/// by the applications it stands for.
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
  Histogram* latency = nullptr;  // sampled application latency (metrics)
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

  /// Publishes the counters and histograms staged on the evaluation
  /// thread (choice.admissible/inadmissible, choice.pops_per_fire,
  /// seminaive.delta_rows, goal.fanout) into the metrics registry. The
  /// driver calls it at each clique's end, when Run returns (a bounded
  /// stop included) and at each kept round, stage or gamma-fire event;
  /// Engine calls it after an allocation failure unwinds Run. No-op
  /// without metrics.
  void FlushMetrics() noexcept;
  /// Queue statistics of one gamma rule (by gamma index); nullptr if the
  /// index has no queue.
  const CandidateQueueStats* QueueStats(int gamma_index) const;

 private:
  struct GammaState {
    const CompiledRule* rule;
    std::unique_ptr<CandidateQueue> queue;
    bool merge = false;  // effective congruence-merge mode
    // For choice rules with an extremum: first-seen (= true) extremum per
    // group, keyed by the group term's components; empty otherwise.
    FlatTable group_best;
    size_t group_charged = 0;  // MemoryBudget charge for group_best
  };

  struct CliqueCtx {
    std::vector<const CompiledRule*> plain;      // no meta behavior
    std::vector<const CompiledRule*> aggregate;  // extrema, non-gamma
    std::vector<GammaState*> gammas;
    std::vector<PredicateId> relations;  // clique head relations
    // Chained deltas: relations only flat rules write and no flat or
    // aggregate rule reads, so only γ generators do. Each sweep widens
    // their delta over the rows its flat rules appended before the
    // generators run, so those rows reach Q in the same sweep.
    std::vector<PredicateId> chained;
    // Some rule Saturate evaluates reads a relation a γ rule writes.
    // When none does, a firing derives nothing Saturate could see, and
    // the stage loop fires without saturating in between.
    bool firing_feeds_saturate = false;
    int64_t stage_counter = 0;
    // Some stage value is in play (a seed fact, or a non-next choice
    // rule's firing); next rules fire only once it is.
    bool stage_seeded = false;
    bool has_next = false;
  };

  /// Decides which calls of one timed site read the clock: each of the
  /// first kWarmup calls, then one call in `period`. Next() returns the
  /// number of calls the current one stands for, or 0 if it is untimed.
  class TimerSampler {
   public:
    static constexpr uint32_t kWarmup = 16;
    uint32_t Next(uint32_t period) {
      if (warmup_ > 0) {
        --warmup_;
        return 1;
      }
      if (skip_ > 0) {
        --skip_;
        return 0;
      }
      skip_ = period - 1;
      return period;
    }

   private:
    uint32_t warmup_ = kWarmup;
    uint32_t skip_ = 0;
  };

  Status EvalClique(uint32_t scc);
  /// Fills ctx->chained and ctx->firing_feeds_saturate from the reads
  /// and writes of the clique's rules.
  void PlanSweeps(CliqueCtx* ctx) const;
  /// Alternates Saturate and γ until γ fires nothing or the guard trips.
  Status StageLoop(CliqueCtx* ctx);
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

  /// Pops g's queue until a candidate fires, for both γ kinds; false
  /// when the queue runs dry. Each rejected pop moves to R and records
  /// one choice-reject event; the firing's audit entry counts why.
  bool PopAndFire(CliqueCtx* ctx, GammaState* g);
  /// A choice rule's per-group extremum filter: true when the candidate
  /// restored in `frame` carries its group's extremum cost, else counts
  /// the rejection in `entry`.
  bool InGroupExtremum(GammaState* g, const BindingFrame& frame,
                       ChoiceAuditEntry* entry);

  /// Clock for profile timing: tracer time when tracing (so spans and
  /// profiles share an epoch), raw steady_clock otherwise.
  uint64_t ObsNowNs() const;
  /// The weight of this application of `rule` under its TimerSampler:
  /// the applications it stands for, or 0 when it is not timed.
  uint32_t ApplyWeight(const CompiledRule& rule);
  /// Closes one timed rule application of weight `weight`: profile wall
  /// time, latency histogram, and a trace span.
  void RecordApply(RuleProfile* prof, uint64_t start_ns, uint32_t weight,
                   const char* cat);
  /// Appends an audit entry and re-charges the trail to the MemoryBudget.
  void AddAuditEntry(ChoiceAuditEntry entry);
  /// Moves `*charged` to `bytes` in the run's MemoryBudget (no-op
  /// without one).
  void Charge(size_t* charged, size_t bytes);
  /// Publishes end-of-run totals into the metrics registry.
  void PublishMetrics();
  /// Records one flight-recorder event stamped with run_counters().
  /// round, stage, gamma-fire and choice-reject events are thinned: the
  /// first kEventsInFull of each kind in a run are kept, then one in
  /// kEventThinning. A kept round, stage or gamma-fire event first
  /// flushes the staged metrics, so live /metrics moves mid-clique.
  void Record(FlightEventKind kind, int64_t a0, int64_t a1);
  static constexpr uint64_t kEventsInFull = 256;
  static constexpr uint64_t kEventThinning = 64;

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
  // group and provenance buffers PopAndFire fills.
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

  ObsContext obs_;
  bool obs_enabled_ = false;  // == obs_.enabled(), cached for the hot path
  uint32_t sample_every_ = 1;  // obs_.sample_every, at least 1
  RunGuard* guard_ = nullptr;
  std::vector<RuleProfile> profiles_;  // by rule_index
  std::vector<TimerSampler> apply_timers_;  // by rule_index
  TimerSampler saturate_timer_;

  // EXPLAIN ANALYZE actuals, indexed [rule_index][goal_id]; rows are
  // sized (enabling counting) only when metrics are on.
  std::vector<std::vector<GoalStats>> goal_stats_;
  // Metrics counted in plain fields on the evaluation thread and
  // published by FlushMetrics; the handles are null when metrics are off.
  uint64_t admissible_staged_ = 0;    // candidates passing Admissible
  uint64_t inadmissible_staged_ = 0;  // candidates rejected by FDs
  Counter* admissible_ = nullptr;
  Counter* inadmissible_ = nullptr;
  HistogramStage delta_rows_;     // per-relation delta rows per round
  HistogramStage pops_per_fire_;  // choice pops per γ firing
  // Per thinned kind (round, stage, gamma-fire, choice-reject, in that
  // order): events offered to Record so far in this run.
  uint64_t thinned_events_[4] = {};
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
