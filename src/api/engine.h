// gdlog public API: the Engine facade.
//
// Typical use:
//
//   gdlog::Engine engine;
//   auto st = engine.LoadProgram(R"(
//     prm(nil, a, 0, 0).
//     prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I,
//                        least(C, I), choice(Y, X).
//     new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).
//   )");
//   engine.AddFact("g", {...});         // one EDB tuple
//   engine.AddFacts("g", 3, rows);      // or many, back to back
//   st = engine.Run();                  // choice fixpoint
//   auto mst = engine.Query("prm", 4);  // one stable model's prm facts
//
// Each Engine owns its ValueStore (symbol/term interning), Catalog
// (relations + indices), analysis results, and one evaluation. Engines
// are single-shot: build, run, query.
#ifndef GDLOG_API_ENGINE_H_
#define GDLOG_API_ENGINE_H_

#include <atomic>
#include <chrono>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/absint/absint.h"
#include "analysis/lint.h"
#include "analysis/stage.h"
#include "ast/ast.h"
#include "common/guardrails.h"
#include "common/status.h"
#include "eval/fixpoint.h"
#include "eval/stable_model.h"
#include "obs/flight_recorder.h"
#include "obs/http/obs_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/catalog.h"
#include "storage/durable/durable_store.h"
#include "value/value.h"

namespace gdlog {

/// Durability configuration (see docs/DURABILITY.md). An empty `dir`
/// means a purely in-memory engine — the default, and zero overhead.
struct DurabilityOptions {
  /// Database directory for the WAL / snapshots / MANIFEST. Opened (and
  /// recovered) during Engine construction; open or recovery failures
  /// are latched and surfaced by LoadProgram/AddFact/Run, mirroring the
  /// faults-spec handling.
  std::string dir;
  /// WAL fsync policy: "always", "batch" (default), or "off".
  std::string fsync = "batch";
  /// Bytes appended between fsyncs under the "batch" policy.
  uint64_t wal_batch_bytes = 1 << 20;
  /// Checkpoint automatically after this many logged mutations
  /// (0 = only explicit Engine::Checkpoint calls).
  uint64_t checkpoint_every = 0;
};

struct EngineOptions {
  EvalOptions eval;
  StageAnalysisOptions stage;
  /// Observability switches. Histogram metrics and the flight recorder
  /// are always on by default (both lock-free, sub-5% overhead); the
  /// Chrome-trace tracer stays opt-in via obs.enabled. See
  /// docs/OBSERVABILITY.md.
  ObsOptions obs;
  /// Live observability endpoint (src/obs/http): /metrics, /healthz,
  /// /statusz, /runs, /trace, /blackbox, and the /progress SSE stream,
  /// served for the engine's lifetime — including while Run is in
  /// flight and after bounded stops. Off by default; shell --serve-obs
  /// / .serve turn it on. See docs/OBSERVABILITY.md "Live endpoint".
  ObsHttpOptions obs_http;
  /// Resource caps for Run (zero = unlimited). Enforced at fixpoint
  /// boundaries; a tripped limit ends the run with a bounded stop, not a
  /// crash — the partial state stays queryable. See docs/ROBUSTNESS.md.
  RunLimits limits;
  /// Fault-injection spec ("probe[@N],..."; see FaultInjector). Empty
  /// falls back to the GDLOG_FAULTS environment variable; a malformed
  /// spec fails LoadProgram/Run with InvalidArgument.
  std::string faults;
  /// Durable relation store: WAL + checkpoints + crash recovery for the
  /// EDB (asserted facts). The fixpoint is re-derived on reopen, not
  /// persisted. Off (in-memory) when durability.dir is empty.
  DurabilityOptions durability;
  /// Derivation provenance & choice audit: annotate every row with its
  /// deriving rule and premise rows (queryable via Engine::Why) and
  /// record one audit entry per choice firing (Engine::ChoiceAudit).
  /// The fixpoint itself is bit-identical with the flag off; memory for
  /// annotations is charged to the engine's MemoryBudget. See docs/OBSERVABILITY.md.
  bool provenance = false;
};

/// Wall time of the coarse engine phases, nanoseconds. Parse/load/
/// analyze/compile/eval are always collected (one clock pair per phase
/// and per AddFacts call; AddFact reads no clock); the saturate/gamma
/// split inside eval requires obs.enabled.
struct EnginePhaseTimes {
  uint64_t parse_ns = 0;
  uint64_t load_ns = 0;  // inserting the inline facts and AddFacts rows
  uint64_t analyze_ns = 0;
  // Every static analysis actually computed (Engine::StaticAnalysis);
  // Run computes none, so it stays 0 until someone asks.
  uint64_t absint_ns = 0;
  uint64_t compile_ns = 0;
  uint64_t eval_ns = 0;
};

/// Coarse engine lifecycle, published as an atomic for the /statusz and
/// run-state gauges (safe to read from server threads mid-run).
enum class EngineRunState : uint8_t {
  kIdle = 0,   // constructed, Run not yet called
  kRunning,    // Run in flight
  kCompleted,  // Run reached a genuine fixpoint
  kStopped,    // Run returned a non-OK status: a bounded stop
               // (limit/cancel/OOM/fault) or a failed compile
};

/// Stable lowercase name ("idle", "running", "completed", "stopped").
const char* EngineRunStateName(EngineRunState s);

/// How the last Run ended. Filled in whether Run succeeded, stopped on a
/// limit, was cancelled, or caught std::bad_alloc; `reason` stays
/// kCompleted until Run has been called.
struct RunOutcome {
  TerminationReason reason = TerminationReason::kCompleted;
  Status status;                   // what Run returned
  uint64_t guard_checks = 0;       // limit/cancel polls performed
  uint64_t peak_memory_bytes = 0;  // tracked-memory high-water mark
};

class Engine {
 public:
  Engine() : Engine(EngineOptions{}) {}
  explicit Engine(EngineOptions options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// The engine's value store; use it to build EDB values.
  ValueStore& store() { return *store_; }
  const ValueStore& store() const { return *store_; }

  // Convenience value constructors.
  Value Int(int64_t v) { return Value::Int(v); }
  Value Sym(std::string_view name) { return store_->MakeSymbol(name); }
  Value Nil() { return Value::Nil(); }

  /// Parses and analyzes a program, then inserts its inline facts into
  /// the catalog. Fails on parse errors, structural stage errors, and
  /// rejected cliques (recursion through negation that is not
  /// stage-stratified). The ground facts never become rules: the parser
  /// turns them into relation rows (program()->facts), and they enter
  /// the catalog here, at load, one batch per predicate through the EDB
  /// load path AddFacts takes — ahead of any later AddFact rows,
  /// WAL-logged when durability is on, and retractable before Run like
  /// any other EDB tuple. Reloading a program against a recovered
  /// database logs nothing new: every fact is already there. The insert
  /// is timed as the load phase (phase_times().load_ns).
  Status LoadProgram(std::string_view text);
  /// Same, from an already-built AST. Ground facts left among its rules
  /// (a programmatically built program has them there) move to its
  /// fact batches first, keeping their clause numbers.
  Status LoadProgramAst(Program program);

  /// Adds an EDB tuple before Run. With durability on, the fact is
  /// WAL-logged before it is applied (write-ahead); a logging failure
  /// leaves the in-memory state unchanged. AddFacts' one-row case; a
  /// braced row (`AddFact("g", {u, v, w})`) takes the initializer_list
  /// overload and allocates nothing unless the relation grows.
  Status AddFact(std::string_view predicate, std::vector<Value> args);
  Status AddFact(std::string_view predicate,
                 std::initializer_list<Value> args);

  /// Adds rows.size() / arity EDB tuples of predicate/arity before Run,
  /// stored back to back in `rows`, in order — the same rows, order and
  /// dedup as one AddFact per row, in one batch: the relation reserves
  /// room for all of them once. With durability on, each row is
  /// WAL-logged before it is applied, as AddFact does. A failure in
  /// mid-batch (an allocation failure, a WAL error) leaves a prefix of
  /// the rows in; retrying the call skips that prefix. `rows` may come
  /// from this engine's own relations (Find). Fails with
  /// InvalidArgument when `arity` is 0 or does not divide rows.size(),
  /// and after Run. Timed into phase_times().load_ns.
  Status AddFacts(std::string_view predicate, uint32_t arity,
                  std::span<const Value> rows);

  /// Removes an EDB tuple before Run (NotFound when absent): one added
  /// by AddFact, or one of the program's inline facts, which are in the
  /// catalog from LoadProgram on. WAL-logged like AddFact when
  /// durability is on.
  Status RetractFact(std::string_view predicate, std::vector<Value> args);

  /// Durable-store control (InvalidArgument when durability is off).
  /// Checkpoint writes a snapshot of the EDB rows (none that Run
  /// derived), rotates the WAL, and swaps the manifest atomically;
  /// SyncDurability flushes pending WAL appends.
  Status Checkpoint();
  Status SyncDurability();
  /// The durable store, or nullptr when durability is off.
  const DurableStore* durable() const { return durable_.get(); }
  /// The latched durability open/recovery failure (OK when durability
  /// is off or the store opened cleanly). Every mutating entry point
  /// returns this status, but callers that construct an engine just to
  /// open a database (e.g. the shell's .open) can inspect it directly.
  const Status& durability_status() const { return durability_status_; }

  /// Evaluates the program to its (choice) fixpoint, or to the first
  /// guard stop (EngineOptions::limits / RequestCancel). Single-shot.
  /// A bounded stop returns the non-OK stop status but leaves the engine
  /// queryable (has_run() is true, Query/RunReport work on the partial
  /// state); outcome() says why the run ended either way.
  Status Run();
  bool has_run() const { return ran_; }

  /// Requests cooperative cancellation of an in-flight Run. Performs one
  /// relaxed atomic store plus (when the flight recorder is on) one
  /// allocation-free ring-buffer event, so it is safe from a signal
  /// handler or another thread; the run stops at the next fixpoint
  /// boundary with Status::Cancelled.
  void RequestCancel() {
    cancel_.Request();
    if (recorder_) recorder_->Record(FlightEventKind::kCancelRequested);
  }

  /// How the last Run ended (reason, status, guard checks, peak memory).
  const RunOutcome& outcome() const { return outcome_; }

  /// Total bytes currently charged to the engine's memory budget.
  size_t tracked_memory_bytes() const { return budget_.used(); }

  /// The fault injector, when a spec was given; nullptr otherwise.
  const FaultInjector* fault_injector() const { return injector_.get(); }

  /// All tuples of predicate/arity (empty when absent).
  std::vector<std::vector<Value>> Query(std::string_view predicate,
                                        uint32_t arity) const;
  /// The relation, or nullptr.
  const Relation* Find(std::string_view predicate, uint32_t arity) const;

  // -- Introspection -------------------------------------------------------
  const StageAnalysis* analysis() const { return analysis_.get(); }
  const Program* program() const { return program_.get(); }
  const FixpointStats* stats() const;
  /// Queue statistics of the i-th choice rule (program order); nullptr
  /// when out of range.
  const CandidateQueueStats* QueueStats(int gamma_index) const;

  // -- Observability -------------------------------------------------------
  /// Per-rule evaluation profiles (by rule index); nullptr before Run.
  const std::vector<RuleProfile>* RuleProfiles() const;
  /// Coarse phase wall times collected so far.
  const EnginePhaseTimes& phase_times() const { return phase_times_; }
  /// The metrics registry in use (external or engine-owned); nullptr
  /// only when metrics are disabled (obs.metrics_enabled = false).
  const MetricsRegistry* metrics() const { return metrics_; }
  /// The tracer; nullptr when obs is disabled.
  const Tracer* tracer() const { return tracer_.get(); }
  /// The always-on flight recorder, the engine's one event stream (safe
  /// to poll from other threads mid-run); nullptr when
  /// obs.recorder_enabled is false.
  const FlightRecorder* flight_recorder() const { return recorder_.get(); }
  /// The engine lifecycle state (atomic; safe from any thread).
  EngineRunState run_state() const {
    return run_state_.load(std::memory_order_acquire);
  }
  /// Seconds since this engine was constructed.
  uint64_t uptime_seconds() const;

  /// The live observability endpoint; nullptr when obs_http.enabled is
  /// false or the server failed to start (see obs_http_status).
  const ObsServer* obs_server() const { return obs_server_.get(); }
  /// The endpoint's bound port (resolves an ephemeral port 0 request);
  /// 0 when the server is not running.
  uint16_t obs_http_port() const {
    return obs_server_ ? obs_server_->port() : 0;
  }
  /// Why the endpoint is not serving (OK when it is, or was never
  /// requested). Latched at construction, like durability_status.
  const Status& obs_http_status() const { return obs_http_status_; }

  /// The flight-recorder ring rendered as text (one line per retained
  /// event). Works at any time — mid-run from another thread, after a
  /// bounded stop, after completion. Empty-ish header when disabled.
  std::string DumpFlightRecorder() const;

  /// Current metrics in the Prometheus text exposition format (0.0.4).
  /// Fails when metrics are disabled.
  Result<std::string> MetricsText() const;
  /// Writes MetricsText() to `path`.
  Status WriteMetricsText(const std::string& path) const;

  /// EXPLAIN ANALYZE: the planner's per-goal cardinality estimates next
  /// to the actuals measured through the executor (probes, rows touched,
  /// matches, mean rows per probe) with the misestimation factor
  /// actual/estimated (> 1 means the planner under-estimated), then the
  /// static analysis's row bound of each IDB predicate against its
  /// actual size (StaticAnalysis). Call after Run; needs metrics on (the
  /// default) for the actuals.
  Result<std::string> ExplainAnalyzeText() const;

  /// Machine-readable run report: one JSON object with the options echo
  /// (including every EvalOptions ablation flag), per-phase wall times,
  /// fixpoint totals, per-rule profiles, per-queue statistics, the lint
  /// findings and the static analysis (both via StaticAnalysis), and —
  /// when obs is enabled — the metrics snapshot. Call after Run.
  Result<std::string> RunReport() const;

  /// Writes the recorded phase timeline as Chrome trace_event JSON
  /// (loadable in chrome://tracing and Perfetto). Requires obs.enabled.
  Status WriteTrace(const std::string& path) const;

  /// The first-order rewriting whose stable models define this program's
  /// meaning (Sections 2-3), pretty-printed.
  Result<std::string> RewrittenProgramText() const;

  /// Human-readable report of the Section 4 analysis: every recursive
  /// clique with its classification, stage arguments, and rule kinds.
  Result<std::string> AnalysisReport() const;

  /// Runs every compile-time check on the loaded program, StaticAnalysis
  /// included, and returns structured diagnostics (analysis/lint.h).
  /// Unlike LoadProgram, this never fails on a bad program — problems
  /// come back as Diagnostic records. Requires a loaded program.
  Result<LintResult> Lint(const LintOptions& options = {}) const;

  /// The abstract-interpretation result (analysis/absint) for the loaded
  /// program. Run never computes it: the first ask does (Lint,
  /// TypeSignaturesText, RunReport, ExplainAnalyzeText or a direct call),
  /// timed into phase_times().absint_ns, and it is kept, the pointer
  /// valid, until the EDB changes. The EDB rows seed it and no derived
  /// row does, so it reads the same before a run, after it and after a
  /// bounded stop. Requires a loaded program.
  Result<const absint::AnalysisResult*> StaticAnalysis() const;

  /// Inferred predicate signatures, one per line (shell `.types`), from
  /// StaticAnalysis.
  Result<std::string> TypeSignaturesText() const;

  /// Verifies the computed result is a stable model (Theorem 1). Call
  /// after Run; intended for tests at small scale.
  Result<StableCheckResult> VerifyStableModel() const;

  // -- Provenance (EngineOptions::provenance) ------------------------------
  /// Proof tree for one tuple of the model: why is it there? The tree
  /// follows the stored (rule, premises) annotations down to asserted
  /// facts, bounded at `max_depth` levels. Requires provenance and Run.
  Result<ProofNode> Why(std::string_view predicate,
                        const std::vector<Value>& tuple,
                        uint32_t max_depth = 8) const;

  /// Why() with a textual target and a rendered result. `target` is
  /// either a ground atom ("prm(a, b, 3, 1)" — parsed with the engine's
  /// store, so it may intern new symbols) or a "pred/arity" spec, which
  /// picks the relation's most recently derived row (handy for smoke
  /// artifacts). Text / JSON / DOT renderings of the same tree.
  Result<std::string> WhyText(const std::string& target,
                              uint32_t max_depth = 8);
  Result<std::string> WhyJson(const std::string& target,
                              uint32_t max_depth = 8);
  Result<std::string> WhyDot(const std::string& target,
                             uint32_t max_depth = 8);

  /// The choice-audit trail (one entry per γ firing): candidate-set
  /// size, chosen witness, tie count, admissibility rejections. Null
  /// when provenance is off or before Run.
  const ChoiceAuditTrail* ChoiceAudit() const;
  /// The audit trail rendered one line per firing (shell `.choices`).
  Result<std::string> ChoiceAuditText() const;

 private:
  /// The body of Run, separated so the Run boundary can catch
  /// std::bad_alloc and fill the outcome uniformly.
  Status RunInner();
  /// Resolves a Why target ("atom(...)" or "pred/arity") to a stored row.
  Result<std::pair<PredicateId, RowId>> ResolveWhyTarget(
      const std::string& target);
  /// Guard + proof-tree construction shared by the Why* renderers.
  Result<ProofNode> WhyRow(PredicateId pred, RowId row,
                           uint32_t max_depth) const;
  /// Opens the durable store, which replays the recovered EDB into the
  /// catalog, and records its extent (constructor helper; failures latch
  /// durability_status_).
  void OpenDurability();
  /// Mirrors the durable store's counters into the metrics gauges.
  void PublishDurabilityMetrics();
  /// Flight-records `st` when a durability operation failed; returns it.
  Status RecordDurability(Status st);
  /// Runs the durable store's auto-checkpoint cadence after a mutation
  /// has been logged, applied and its extent recorded. A failure is
  /// flight-recorded but does not fail the mutation, which is durable
  /// already: a retried add would pass its dedup probe and log the fact
  /// a second time.
  void CheckpointCadence();
  /// Refreshes the runtime gauges (engine.uptime_seconds and the
  /// engine.run_state family) so every scrape path — /metrics, shell
  /// .metrics, WriteMetricsText — sees current values.
  void RefreshRuntimeMetrics() const;
  /// The /statusz JSON: build info, uptime, run state, last progress.
  /// Reads only atomics and lock-free rings — safe mid-run.
  std::string StatuszJson() const;
  /// Publishes the end-of-run artifacts that are only safe to render
  /// once evaluation stopped (RunReport JSON, Chrome trace) into the
  /// endpoint's bounded ring.
  void PublishRunArtifacts();
  /// Records one flight-recorder event of the run in flight, stamped with
  /// the driver's counters (zero before it exists) and tracked memory.
  void RecordRunEvent(FlightEventKind kind, int64_t a0, int64_t a1);
  /// Rendered program rules indexed by clause number (facts stay empty).
  std::vector<std::string> RuleTexts() const;
  /// The one way EDB rows enter storage after recovery (AddFact,
  /// AddFacts, the inline facts): inserts `n` rows of relation `id`,
  /// arity values each, back to back in `rows` (not pointing into the
  /// relation), in order, and then records the relation's EDB extent
  /// once, however the batch ended. In memory, the relation reserves
  /// room for a batch of n > 1 once, then inserts it with InsertBatch;
  /// with provenance on, new rows are annotated as asserted. With the
  /// durable store attached, each new row is its own mutation: logged
  /// (after a create record when the relation is empty), inserted,
  /// recorded, then the checkpoint cadence runs. A failure in mid-batch
  /// leaves a prefix of the rows.
  Status InsertEdbRows(PredicateId id, const Value* rows, size_t n);
  /// AddFact for one row held anywhere but in the engine's relations.
  Status AddFactRow(std::string_view predicate, TupleView row);
  /// Inserts every row of the program's fact batches, one
  /// InsertEdbRows call per predicate.
  Status LoadFacts(const Program& program);

  EngineOptions options_;
  // Guardrails. Declared before the stores: members destroy in reverse
  // order, and the value-store arenas release their charge into budget_
  // on destruction, so the budget must outlive them.
  MemoryBudget budget_;
  CancelToken cancel_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<RunGuard> guard_;
  Status faults_status_;  // parse result of the faults spec
  RunOutcome outcome_;
  std::unique_ptr<ValueStore> store_;
  std::unique_ptr<Catalog> catalog_;
  // Durable store (null when durability.dir is empty). Declared after
  // store_/catalog_: recovery interns values and its charge must release
  // into budget_ before the stores go.
  std::unique_ptr<DurableStore> durable_;
  Status durability_status_;  // latched open/recovery failure
  std::unique_ptr<Program> program_;
  std::unique_ptr<StageAnalysis> analysis_;
  // StaticAnalysis's cache, filled on first request (hence mutable, as
  // is phase_times_, which times it). Only the caller's thread touches
  // it: the HTTP server reads pushed snapshots.
  mutable std::unique_ptr<absint::AnalysisResult> absint_;
  std::unique_ptr<FixpointDriver> driver_;
  // Observability. The tracer exists only when options_.obs.enabled; the
  // registry and flight recorder are always-on by default (gated by
  // metrics_enabled / recorder_enabled). metrics_ points at either
  // own_metrics_ or the external registry supplied via ObsOptions.
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<MetricsRegistry> own_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<FlightRecorder> recorder_;
  std::chrono::steady_clock::time_point start_time_;
  std::atomic<EngineRunState> run_state_{EngineRunState::kIdle};
  mutable EnginePhaseTimes phase_times_;
  // The EDB's extent: relation `id`'s first edb_rows_[id] rows are EDB
  // rows (program facts, AddFact rows, recovered rows), none past the
  // vector's end. Recorded where EDB rows enter (once per InsertEdbRows
  // batch, at RetractFact and at recovery), so derived rows, which Run
  // appends, never count. The checkpoint, the stable-model check's
  // reduct seeds, the static analysis and the durability report read it.
  std::vector<size_t> edb_rows_;
  bool ran_ = false;
  // The live endpoint is declared LAST: its worker threads read the
  // members above (metrics, recorder, atomics), so it must be the
  // first member destroyed — destruction joins every server thread
  // before anything it borrows goes away.
  Status obs_http_status_;
  std::unique_ptr<ObsServer> obs_server_;
};

}  // namespace gdlog

#endif  // GDLOG_API_ENGINE_H_
