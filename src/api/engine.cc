#include "api/engine.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "analysis/diagnostics.h"
#include "analysis/rewriter.h"
#include "ast/printer.h"
#include "common/build_info.h"
#include "common/logging.h"
#include "obs/json.h"
#include "parser/parser.h"

namespace gdlog {

namespace {

uint64_t WallNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double NsToMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// Appends printf-formatted text to `out`, however long it comes out.
[[gnu::format(printf, 2, 3)]] void AppendF(std::string* out, const char* fmt,
                                           ...) {
  va_list args, again;
  va_start(args, fmt);
  va_copy(again, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (n > 0) {
    const size_t at = out->size();
    out->resize(at + static_cast<size_t>(n) + 1);  // room for the NUL
    std::vsnprintf(out->data() + at, static_cast<size_t>(n) + 1, fmt, again);
    out->resize(at + static_cast<size_t>(n));
  }
  va_end(again);
}

// Numeric "GDnnn" code of a status for flight-recorder payloads (0 when
// the status carries no code).
int64_t DiagCodeNumber(const Status& st) {
  const std::string code = DiagCodeOfStatus(st);
  int64_t n = 0;
  for (size_t i = 2; i < code.size(); ++i) {
    if (code[i] < '0' || code[i] > '9') return 0;
    n = n * 10 + (code[i] - '0');
  }
  return n;
}

}  // namespace

const char* EngineRunStateName(EngineRunState s) {
  switch (s) {
    case EngineRunState::kIdle: return "idle";
    case EngineRunState::kRunning: return "running";
    case EngineRunState::kCompleted: return "completed";
    case EngineRunState::kStopped: return "stopped";
  }
  return "unknown";
}

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      store_(std::make_unique<ValueStore>()),
      catalog_(std::make_unique<Catalog>()),
      start_time_(std::chrono::steady_clock::now()) {
  // Memory tracking is always on: the per-container recounts are O(1)
  // amortized, and peak figures belong in every report, limit or not.
  // Wired before the fault injector so the initial charge of the empty
  // stores can never trip the "alloc" probe.
  store_->set_memory_budget(&budget_);
  catalog_->set_memory_budget(&budget_);
  // Provenance: the catalog's side-column is the one switch; the driver
  // turns its premise trail and choice audit on from it.
  if (options_.provenance) catalog_->EnableProvenance();
  // Fault injection: explicit option first, GDLOG_FAULTS env fallback. A
  // malformed spec is remembered and surfaced by LoadProgram/Run rather
  // than aborting construction.
  std::string spec = options_.faults;
  if (spec.empty()) {
    if (const char* env = std::getenv("GDLOG_FAULTS")) spec = env;
  }
  if (!spec.empty()) {
    auto parsed = FaultInjector::Parse(spec);
    if (parsed.ok()) {
      injector_ = std::make_unique<FaultInjector>(std::move(*parsed));
      budget_.set_fault_injector(injector_.get());
    } else {
      faults_status_ = parsed.status();
    }
  }
  // Tracer: opt-in (it allocates per event). Metrics registry and
  // flight recorder: always-on defaults (see ObsOptions); an external
  // registry wins over the enable flag so callers accumulating across
  // runs keep working even with metrics_enabled=false.
  if (options_.obs.enabled) {
    tracer_ = std::make_unique<Tracer>(options_.obs.sample_every);
  }
  if (options_.obs.metrics != nullptr) {
    metrics_ = options_.obs.metrics;
  } else if (options_.obs.metrics_enabled) {
    own_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = own_metrics_.get();
  }
  if (options_.obs.recorder_enabled) {
    recorder_ =
        std::make_unique<FlightRecorder>(options_.obs.recorder_capacity);
  }
  if (metrics_ != nullptr) {
    // Build identity as a constant gauge, the node_exporter convention:
    // the value is always 1, the information lives in the labels.
    const BuildInfo& bi = GetBuildInfo();
    metrics_
        ->GetGauge("build.info", {{"version", bi.version},
                                  {"git_sha", bi.git_sha},
                                  {"compiler", bi.compiler},
                                  {"sanitizer", bi.sanitizer}})
        ->Set(1);
    // Register the uptime/run-state gauges now so the very first scrape
    // already carries the full family.
    RefreshRuntimeMetrics();
  }
  // Durability last: recovery interns values and charges the budget, so
  // every guardrail and observability hook must already be in place.
  OpenDurability();
  // The live endpoint starts after every surface it borrows exists. A
  // bind failure is latched (obs_http_status), not fatal — an engine
  // that cannot serve can still evaluate.
  if (options_.obs_http.enabled) {
    ObsServer::Sources src;
    src.metrics = metrics_;
    src.metrics_text = [this]() -> std::string {
      auto text = MetricsText();
      return text.ok() ? std::move(*text) : std::string();
    };
    src.recorder = recorder_.get();
    src.statusz = [this] { return StatuszJson(); };
    obs_server_ =
        std::make_unique<ObsServer>(options_.obs_http, std::move(src));
    obs_http_status_ = obs_server_->Start();
    if (!obs_http_status_.ok()) {
      GDLOG_LOG_ERROR << "obs endpoint failed to start: "
                      << obs_http_status_.ToString();
      obs_server_.reset();
    }
  }
}

Engine::~Engine() = default;

namespace {

Status InjectedFault(std::string_view probe) {
  return Status::Internal(std::string("[") + std::string(diag::kInjectedFault) +
                          "] injected fault at probe '" + std::string(probe) +
                          "'");
}

Status OomStatus() {
  return Status::OutOfMemory(std::string("[") +
                             std::string(diag::kOutOfMemory) +
                             "] allocation failed");
}

// Appends `n` EDB rows of rel.arity() values, stored back to back in
// `rows` (which must not point into `rel`), and annotates the new ones
// as asserted when provenance is on. A batch reserves first, so only the
// reserve can grow (and trip the "alloc" probe) before any row is in; a
// single row does not reserve, so per-row loads grow geometrically
// instead of to an exact fit.
void AppendEdbRows(Relation& rel, const Value* rows, size_t n) {
  if (n > 1) rel.Reserve(n);
  const size_t first = rel.size();
  auto annotate = [&rel, first] {
    if (!rel.provenance_enabled()) return;
    for (size_t r = first; r < rel.size(); ++r) {
      rel.Annotate(static_cast<RowId>(r), Relation::kEdbRule, nullptr, 0);
    }
  };
  uint64_t inserted = 0;
  try {
    rel.InsertBatch(rows, n, &inserted);
  } catch (const std::bad_alloc&) {
    // A budget fault is raised after the row that grew a capacity is
    // stored. Annotate it too: a retry skips it as present.
    annotate();
    throw;
  }
  annotate();
}

// Records a relation's EDB extent, its row count, now and again when it
// goes out of scope, so that a batch or a retract that throws in
// mid-way leaves the record in step with the rows that went in or out.
class ExtentRecord {
 public:
  ExtentRecord(std::vector<size_t>& extents, PredicateId id,
               const Relation& rel)
      : rel_(rel) {
    if (extents.size() <= id) extents.resize(id + 1, 0);
    extent_ = &extents[id];
  }
  ~ExtentRecord() { Now(); }
  ExtentRecord(const ExtentRecord&) = delete;
  ExtentRecord& operator=(const ExtentRecord&) = delete;

  void Now() { *extent_ = rel_.size(); }

 private:
  const Relation& rel_;
  size_t* extent_;
};

}  // namespace

void Engine::OpenDurability() {
  if (options_.durability.dir.empty()) return;
  auto policy = ParseFsyncPolicy(options_.durability.fsync);
  if (!policy.ok()) {
    durability_status_ = policy.status();
    return;
  }
  auto durable = std::make_unique<DurableStore>();
  DurableStore::Options dopts;
  dopts.dir = options_.durability.dir;
  dopts.fsync = *policy;
  dopts.wal_batch_bytes = options_.durability.wal_batch_bytes;
  dopts.checkpoint_every = options_.durability.checkpoint_every;
  dopts.injector = injector_.get();
  dopts.budget = &budget_;
  // Recovery replays the EDB that was durable at the last crash/close
  // straight into the catalog, which is empty until now.
  Status st;
  try {
    st = durable->Open(dopts, store_.get(), catalog_.get());
  } catch (const std::bad_alloc&) {
    st = OomStatus();
  }
  if (!RecordDurability(st).ok()) {
    durability_status_ = st;
    return;
  }
  durable_ = std::move(durable);
  // Every recovered row is an EDB row.
  edb_rows_.resize(catalog_->size());
  for (PredicateId id = 0; id < catalog_->size(); ++id) {
    edb_rows_[id] = catalog_->relation(id).size();
  }
  const DurableStore::RecoveryInfo& rec = durable_->recovery();
  if (recorder_ && rec.opened_existing) {
    recorder_->Record(FlightEventKind::kRecovery,
                      static_cast<int64_t>(rec.wal_records_replayed),
                      static_cast<int64_t>(rec.wal_dropped_bytes));
  }
  PublishDurabilityMetrics();
}

void Engine::PublishDurabilityMetrics() {
  if (metrics_ == nullptr || durable_ == nullptr) return;
  const DurableStore::Stats s = durable_->stats();
  const DurableStore::RecoveryInfo& rec = durable_->recovery();
  metrics_->GetGauge("wal.appends")->Set(static_cast<int64_t>(s.wal_appends));
  metrics_->GetGauge("wal.fsyncs")->Set(static_cast<int64_t>(s.wal_fsyncs));
  metrics_->GetGauge("wal.bytes_appended")
      ->Set(static_cast<int64_t>(s.wal_bytes_appended));
  metrics_->GetGauge("wal.size_bytes")
      ->Set(static_cast<int64_t>(s.wal_size_bytes));
  metrics_->GetGauge("wal.seq")
      ->Set(static_cast<int64_t>(durable_->wal_seq()));
  metrics_->GetGauge("checkpoint.count")
      ->Set(static_cast<int64_t>(s.checkpoints));
  metrics_->GetGauge("checkpoint.failures")
      ->Set(static_cast<int64_t>(s.checkpoint_failures));
  metrics_->GetGauge("checkpoint.last_bytes")
      ->Set(static_cast<int64_t>(s.checkpoint_bytes));
  metrics_->GetGauge("checkpoint.snapshot_seq")
      ->Set(static_cast<int64_t>(durable_->snapshot_seq()));
  metrics_->GetGauge("recovery.wal_records_replayed")
      ->Set(static_cast<int64_t>(rec.wal_records_replayed));
  metrics_->GetGauge("recovery.wal_dropped_bytes")
      ->Set(static_cast<int64_t>(rec.wal_dropped_bytes));
}

Status Engine::LoadProgram(std::string_view text) {
  GDLOG_RETURN_IF_ERROR(faults_status_);
  GDLOG_RETURN_IF_ERROR(durability_status_);
  if (injector_ && injector_->Hit(FaultInjector::kParse)) {
    if (recorder_) recorder_->Record(FlightEventKind::kFaultInjected, 0);
    return InjectedFault(FaultInjector::kParse);
  }
  // Parsing interns symbols, so with an armed "alloc" probe (or a truly
  // exhausted heap) it can throw; surface that as a Status like any
  // other load failure.
  try {
    const uint64_t t0 = WallNowNs();
    auto parsed = [&] {
      TraceSpan span(tracer_.get(), "parse", "engine");
      return ParseProgram(store_.get(), text);
    }();
    phase_times_.parse_ns += WallNowNs() - t0;
    GDLOG_RETURN_IF_ERROR(parsed.status());
    return LoadProgramAst(std::move(*parsed));
  } catch (const std::bad_alloc&) {
    return OomStatus();
  }
}

Status Engine::LoadProgramAst(Program program) {
  GDLOG_RETURN_IF_ERROR(faults_status_);
  GDLOG_RETURN_IF_ERROR(durability_status_);
  if (program_) {
    return Status::InvalidArgument("a program is already loaded");
  }
  if (injector_ && injector_->Hit(FaultInjector::kAnalyze)) {
    if (recorder_) recorder_->Record(FlightEventKind::kFaultInjected, 1);
    return InjectedFault(FaultInjector::kAnalyze);
  }
  try {
    program.SplitGroundFacts(store_.get());
    const uint64_t t0 = WallNowNs();
    auto analyzed = [&] {
      TraceSpan span(tracer_.get(), "analyze", "engine");
      return AnalyzeStages(program, options_.stage);
    }();
    phase_times_.analyze_ns += WallNowNs() - t0;
    GDLOG_RETURN_IF_ERROR(analyzed.status());
    for (const CliqueStageInfo& cl : analyzed->cliques) {
      if (cl.cls != CliqueClass::kRejected) continue;
      Diagnostic d = MakeDiagnostic(
          cl.code.empty() ? std::string_view(diag::kNotStageStratified)
                          : std::string_view(cl.code),
          cl.diagnostic);
      if (!cl.rules.empty()) {
        const CliqueClause first = FirstCliqueClause(program, *analyzed, cl);
        d.rule_index = static_cast<int>(first.clause);
        d.loc = first.loc;
      }
      return DiagnosticToStatus(d);
    }
    // The facts load as data, timed as the load phase. A failed insert
    // leaves no program loaded, so the load can be retried; rows
    // already in are skipped then.
    if (!program.facts.empty()) {
      const uint64_t t1 = WallNowNs();
      const Status st = [&] {
        TraceSpan span(tracer_.get(), "load_facts", "engine");
        return LoadFacts(program);
      }();
      phase_times_.load_ns += WallNowNs() - t1;
      if (durable_) PublishDurabilityMetrics();
      GDLOG_RETURN_IF_ERROR(st);
    }
    program_ = std::make_unique<Program>(std::move(program));
    analysis_ = std::make_unique<StageAnalysis>(std::move(*analyzed));
    return Status::OK();
  } catch (const std::bad_alloc&) {
    return OomStatus();
  }
}

Status Engine::LoadFacts(const Program& program) {
  for (const FactBatch& b : program.facts) {
    GDLOG_RETURN_IF_ERROR(InsertEdbRows(catalog_->Ensure(b.predicate, b.arity),
                                        b.rows.data(), b.count));
  }
  return Status::OK();
}

Status Engine::InsertEdbRows(PredicateId id, const Value* rows, size_t n) {
  absint_.reset();  // the EDB it was seeded from changes
  Relation& rel = catalog_->relation(id);
  ExtentRecord record(edb_rows_, id, rel);
  if (!durable_) {
    AppendEdbRows(rel, rows, n);
    return Status::OK();
  }
  // Write-ahead, one record at a time: each is logged before the
  // catalog changes, and the checkpoint cadence runs only once the
  // catalog and the extent hold it — a checkpoint in between would
  // rotate away the WAL holding the record while its snapshot lacks the
  // row. On append failure nothing is applied; at worst the log carries
  // a torn tail the next recovery drops.
  const uint32_t arity = rel.arity();
  for (size_t i = 0; i < n; ++i) {
    const TupleView row(rows + i * arity, arity);
    // Dedup before logging so the WAL never carries duplicate adds
    // (which keeps retract-by-first-match exact on replay). In-memory
    // engines skip the extra probe — Insert dedups on its own.
    if (rel.Contains(row)) continue;
    if (rel.empty()) {
      // A relation's first EDB row follows its create record; the
      // relation is in the catalog already.
      GDLOG_RETURN_IF_ERROR(RecordDurability(
          durable_->LogCreateRelation(rel.name(), arity)));
      CheckpointCadence();
    }
    GDLOG_RETURN_IF_ERROR(
        RecordDurability(durable_->LogAddFact(rel.name(), arity, row)));
    try {
      AppendEdbRows(rel, row.data(), 1);
    } catch (const std::bad_alloc&) {
      // Between the WAL append and the relation insert there is no safe
      // failure point: the fact may be durable yet absent from the
      // engine's relation, and a retried add would pass the dedup probe
      // and duplicate it in the log. Latch durability instead.
      durability_status_ = Status::RuntimeError(
          "[GD210] durable store '" + durable_->dir() +
          "' out of sync with the engine after an allocation failure; "
          "reopen to recover");
      return OomStatus();
    }
    record.Now();
    CheckpointCadence();
  }
  return Status::OK();
}

Status Engine::RecordDurability(Status st) {
  if (!st.ok() && recorder_) {
    recorder_->Record(FlightEventKind::kDurabilityError, DiagCodeNumber(st));
  }
  return st;
}

void Engine::CheckpointCadence() {
  (void)RecordDurability(durable_->MaybeCheckpoint(*catalog_, edb_rows_));
}

Status Engine::AddFact(std::string_view predicate, std::vector<Value> args) {
  return AddFactRow(predicate, args);
}

Status Engine::AddFact(std::string_view predicate,
                       std::initializer_list<Value> args) {
  return AddFactRow(predicate, TupleView(args.begin(), args.size()));
}

Status Engine::AddFactRow(std::string_view predicate, TupleView row) {
  if (ran_) return Status::InvalidArgument("cannot add facts after Run");
  GDLOG_RETURN_IF_ERROR(durability_status_);
  try {
    GDLOG_RETURN_IF_ERROR(InsertEdbRows(
        catalog_->Ensure(predicate, static_cast<uint32_t>(row.size())),
        row.data(), 1));
  } catch (const std::bad_alloc&) {
    return OomStatus();
  }
  PublishDurabilityMetrics();
  return Status::OK();
}

Status Engine::AddFacts(std::string_view predicate, uint32_t arity,
                        std::span<const Value> rows) {
  if (ran_) return Status::InvalidArgument("cannot add facts after Run");
  GDLOG_RETURN_IF_ERROR(durability_status_);
  if (arity == 0 || rows.size() % arity != 0) {
    return Status::InvalidArgument(
        "AddFacts: " + std::to_string(rows.size()) +
        " values are not a whole number of rows of arity " +
        std::to_string(arity));
  }
  if (rows.empty()) return Status::OK();
  const uint64_t t0 = WallNowNs();
  Status st;
  try {
    TraceSpan span(tracer_.get(), "load_facts", "engine");
    const PredicateId id = catalog_->Ensure(predicate, arity);
    // Rows taken from this very relation (Find exposes them) would move
    // under the reserve; they are all present anyway, but copy them.
    std::vector<Value> own;
    if (catalog_->relation(id).Holds(rows.data())) {
      own.assign(rows.begin(), rows.end());
      rows = own;
    }
    st = InsertEdbRows(id, rows.data(), rows.size() / arity);
  } catch (const std::bad_alloc&) {
    st = OomStatus();
  }
  phase_times_.load_ns += WallNowNs() - t0;
  if (st.ok()) PublishDurabilityMetrics();
  return st;
}

Status Engine::RetractFact(std::string_view predicate,
                           std::vector<Value> args) {
  if (ran_) return Status::InvalidArgument("cannot retract facts after Run");
  GDLOG_RETURN_IF_ERROR(durability_status_);
  try {
    const auto arity = static_cast<uint32_t>(args.size());
    const PredicateId id = catalog_->Lookup(predicate, arity);
    if (id == kNoPredicate ||
        !catalog_->relation(id).Contains(TupleView(args))) {
      return Status::NotFound(
          "fact not present: " + std::string(predicate) +
          TupleToString(*store_, TupleView(args)));
    }
    if (durable_) {
      GDLOG_RETURN_IF_ERROR(RecordDurability(
          durable_->LogRetract(predicate, arity, TupleView(args))));
    }
    // A bad_alloc past this point is retry-safe, unlike AddFact's: a
    // second retract of the same tuple replays as a no-op.
    absint_.reset();
    {
      Relation& rel = catalog_->relation(id);
      ExtentRecord record(edb_rows_, id, rel);
      rel.Retract(TupleView(args));
    }
    if (durable_) {
      CheckpointCadence();
      PublishDurabilityMetrics();
    }
    return Status::OK();
  } catch (const std::bad_alloc&) {
    return OomStatus();
  }
}

Status Engine::Checkpoint() {
  GDLOG_RETURN_IF_ERROR(durability_status_);
  if (!durable_) {
    return Status::InvalidArgument(
        "durability disabled: set EngineOptions::durability.dir");
  }
  const uint64_t retired_wal_bytes = durable_->stats().wal_size_bytes;
  const Status st = RecordDurability(durable_->Checkpoint(*catalog_, edb_rows_));
  if (st.ok() && recorder_) {
    recorder_->Record(FlightEventKind::kCheckpoint,
                      static_cast<int64_t>(durable_->snapshot_seq()),
                      static_cast<int64_t>(durable_->stats().checkpoint_bytes));
    recorder_->Record(FlightEventKind::kWalRotate,
                      static_cast<int64_t>(durable_->wal_seq()),
                      static_cast<int64_t>(retired_wal_bytes));
  }
  PublishDurabilityMetrics();
  return st;
}

Status Engine::SyncDurability() {
  GDLOG_RETURN_IF_ERROR(durability_status_);
  if (!durable_) {
    return Status::InvalidArgument(
        "durability disabled: set EngineOptions::durability.dir");
  }
  const Status st = RecordDurability(durable_->Sync());
  PublishDurabilityMetrics();
  return st;
}

Status Engine::Run() {
  if (!program_) return Status::InvalidArgument("no program loaded");
  if (ran_) return Status::InvalidArgument("engine already ran");
  GDLOG_RETURN_IF_ERROR(faults_status_);
  GDLOG_RETURN_IF_ERROR(durability_status_);
  // EDB edits are done; make them durable before deriving from them.
  if (durable_) {
    GDLOG_RETURN_IF_ERROR(RecordDurability(durable_->Sync()));
  }

  guard_ = std::make_unique<RunGuard>(options_.limits, &cancel_, &budget_,
                                      injector_.get());
  guard_->Arm();
  run_state_.store(EngineRunState::kRunning, std::memory_order_release);
  RecordRunEvent(FlightEventKind::kRunStart,
                 static_cast<int64_t>(program_->rules.size()),
                 static_cast<int64_t>(catalog_->size()));

  Status st;
  try {
    st = RunInner();
  } catch (const std::bad_alloc&) {
    // Allocation failure (real or injected via the "alloc" probe). The
    // tracked structures throw only from growth paths that leave them
    // readable, so whatever partial state exists is safe to report.
    guard_->ForceReason(TerminationReason::kOom);
    if (driver_) driver_->FlushMetrics();
    RecordRunEvent(FlightEventKind::kOom, static_cast<int64_t>(budget_.used()),
                   static_cast<int64_t>(budget_.peak()));
    st = Status::OutOfMemory(std::string("[") +
                             std::string(diag::kOutOfMemory) +
                             "] allocation failed during evaluation");
  }
  outcome_.reason = guard_->reason();
  outcome_.status = st;
  outcome_.guard_checks = guard_->checks();
  // MemoryBudget is the single source of truth for peak tracked memory:
  // the outcome, the report's termination section, and the metrics gauge
  // all read budget_.peak() at this one point.
  outcome_.peak_memory_bytes = budget_.peak();
  if (metrics_ != nullptr) {
    metrics_->GetGauge("memory.tracked_peak_bytes")
        ->Set(static_cast<int64_t>(outcome_.peak_memory_bytes));
  }
  PublishDurabilityMetrics();
  if (driver_ && outcome_.reason != TerminationReason::kCompleted) {
    // A bounded stop leaves a consistent partial fixpoint behind: keep
    // the engine queryable (Query/RunReport/stats all work) while still
    // returning the non-OK stop status.
    ran_ = true;
  }

  if (tracer_ && !options_.obs.trace_path.empty()) {
    const Status trace_st = WriteTrace(options_.obs.trace_path);
    if (!trace_st.ok()) {
      GDLOG_LOG_ERROR << "trace export failed: " << trace_st.ToString();
    }
  }
  run_state_.store(st.ok() ? EngineRunState::kCompleted
                           : EngineRunState::kStopped,
                   std::memory_order_release);
  PublishRunArtifacts();
  // The terminal event comes after /runs/last is populated, so an SSE
  // client that closes on it finds the report already there.
  RecordRunEvent(FlightEventKind::kTermination,
                 static_cast<int64_t>(outcome_.reason),
                 outcome_.status.ok() ? 1 : 0);
  // The black box earns its keep exactly when a run does NOT complete:
  // dump the ring to stderr on any bounded stop, crash-adjacent or not.
  if (recorder_ && options_.obs.recorder_dump_on_stop &&
      outcome_.reason != TerminationReason::kCompleted) {
    fputs(recorder_->DumpText().c_str(), stderr);
  }
  return st;
}

void Engine::RecordRunEvent(FlightEventKind kind, int64_t a0, int64_t a1) {
  if (!recorder_) return;
  RunCounters run = driver_ ? driver_->run_counters() : RunCounters{};
  run.memory_bytes = budget_.used();
  recorder_->Record(kind, a0, a1, run);
}

void Engine::PublishRunArtifacts() {
  // RunReport and the tracer are not mid-run-safe; now that evaluation
  // stopped, snapshot them into the endpoint's ring. Bounded stops
  // report partial state (ran_ is set for those too).
  if (!obs_server_) return;
  if (ran_) {
    auto report = RunReport();
    if (report.ok()) obs_server_->PushRunReport(std::move(*report));
  }
  if (tracer_) {
    JsonWriter w;
    tracer_->WriteJson(&w);
    obs_server_->SetTrace(w.Take());
  }
}

Status Engine::RunInner() {
  if (injector_ && injector_->Hit(FaultInjector::kCompile)) {
    guard_->ForceReason(TerminationReason::kFault);
    RecordRunEvent(FlightEventKind::kFaultInjected, 2, 0);
    return InjectedFault(FaultInjector::kCompile);
  }

  const uint64_t compile_t0 = WallNowNs();
  // Cost-based join planning: estimates come from the EDB as loaded
  // above, so the chosen goal orders are a pure function of the program
  // plus its input — identical across reruns.
  JoinPlanner planner(catalog_.get());
  CompileProgramOptions copts;
  if (options_.eval.use_join_planner) copts.planner = &planner;
  auto compiled = [&] {
    TraceSpan span(tracer_.get(), "compile", "engine");
    return CompileProgram(*program_, *analysis_, catalog_.get(), store_.get(),
                          copts);
  }();
  phase_times_.compile_ns += WallNowNs() - compile_t0;
  GDLOG_RETURN_IF_ERROR(compiled.status());
  for (const CompiledRule& r : *compiled) {
    if (r.plan_decisions.empty()) continue;
    RecordRunEvent(FlightEventKind::kPlanDecision,
                   static_cast<int64_t>(r.rule_index),
                   static_cast<int64_t>(r.plan_decisions.size()));
  }

  driver_ = std::make_unique<FixpointDriver>(
      catalog_.get(), store_.get(), analysis_.get(), std::move(*compiled),
      options_.eval,
      ObsContext{metrics_, tracer_.get(), recorder_.get(),
                 options_.obs.sample_every},
      guard_.get());
  const uint64_t eval_t0 = WallNowNs();
  const Status eval_status = [&] {
    TraceSpan span(tracer_.get(), "eval", "engine");
    return driver_->Run();
  }();
  phase_times_.eval_ns += WallNowNs() - eval_t0;
  GDLOG_RETURN_IF_ERROR(eval_status);
  ran_ = true;
  return Status::OK();
}

const Relation* Engine::Find(std::string_view predicate,
                             uint32_t arity) const {
  const PredicateId id = catalog_->Lookup(predicate, arity);
  return id == kNoPredicate ? nullptr : &catalog_->relation(id);
}

std::vector<std::vector<Value>> Engine::Query(std::string_view predicate,
                                              uint32_t arity) const {
  std::vector<std::vector<Value>> out;
  const Relation* rel = Find(predicate, arity);
  if (!rel) return out;
  out.reserve(rel->size());
  for (RowId row = 0; row < rel->size(); ++row) {
    const TupleView t = rel->Row(row);
    out.emplace_back(t.begin(), t.end());
  }
  return out;
}

const FixpointStats* Engine::stats() const {
  return driver_ ? &driver_->stats() : nullptr;
}

const CandidateQueueStats* Engine::QueueStats(int gamma_index) const {
  return driver_ ? driver_->QueueStats(gamma_index) : nullptr;
}

const std::vector<RuleProfile>* Engine::RuleProfiles() const {
  return driver_ ? &driver_->rule_profiles() : nullptr;
}

Result<std::string> Engine::RunReport() const {
  if (!ran_) return Status::InvalidArgument("call Run first");
  // Lint merges the static analysis's findings, so this computes the
  // analysis if nobody has yet, before phases.absint_ms is read.
  GDLOG_ASSIGN_OR_RETURN(const LintResult lint, Lint());
  GDLOG_ASSIGN_OR_RETURN(const absint::AnalysisResult* analysis,
                         StaticAnalysis());
  const FixpointStats& s = driver_->stats();
  JsonWriter w;
  w.BeginObject();

  w.Key("program").BeginObject();
  w.Key("rules").UInt(program_->rules.size());
  w.Key("relations").UInt(catalog_->size());
  w.EndObject();

  // Build identity: which binary produced this report (mirrors the
  // gdlog_build_info Prometheus gauge).
  {
    const BuildInfo& bi = GetBuildInfo();
    w.Key("build").BeginObject();
    w.Key("version").String(bi.version);
    w.Key("git_sha").String(bi.git_sha);
    w.Key("compiler").String(bi.compiler);
    w.Key("sanitizer").String(bi.sanitizer);
    w.EndObject();
  }

  // Options echo: every ablation flag, so a saved report fully describes
  // the configuration that produced it.
  w.Key("options").BeginObject();
  w.Key("choice_seed").UInt(options_.eval.choice_seed);
  w.Key("use_merge_congruence").Bool(options_.eval.use_merge_congruence);
  w.Key("use_priority_queue").Bool(options_.eval.use_priority_queue);
  w.Key("use_seminaive").Bool(options_.eval.use_seminaive);
  w.Key("use_join_planner").Bool(options_.eval.use_join_planner);
  w.Key("provenance").Bool(options_.provenance);
  w.Key("obs_enabled").Bool(options_.obs.enabled);
  w.Key("obs_sample_every").UInt(options_.obs.sample_every);
  w.Key("metrics_enabled").Bool(metrics_ != nullptr);
  w.Key("recorder_enabled").Bool(recorder_ != nullptr);
  if (recorder_) w.Key("recorder_capacity").UInt(recorder_->capacity());
  w.Key("limits").BeginObject();
  w.Key("deadline_ms").UInt(options_.limits.deadline_ms);
  w.Key("max_tuples").UInt(options_.limits.max_tuples);
  w.Key("max_stages").UInt(options_.limits.max_stages);
  w.Key("max_iterations").UInt(options_.limits.max_iterations);
  w.Key("max_memory_bytes").UInt(options_.limits.max_memory_bytes);
  w.EndObject();
  if (injector_) w.Key("faults").String(injector_->spec());
  w.EndObject();

  // How the run ended: reason + status, the guard activity, and the
  // memory high-water mark. "completed" means a genuine fixpoint; any
  // other reason marks the tuple counts below as a partial (truncated)
  // evaluation.
  w.Key("termination").BeginObject();
  w.Key("reason").String(std::string(TerminationReasonName(outcome_.reason)));
  w.Key("ok").Bool(outcome_.status.ok());
  if (!outcome_.status.ok()) {
    w.Key("status").String(outcome_.status.ToString());
  }
  w.Key("guard_checks").UInt(outcome_.guard_checks);
  w.Key("tracked_memory_bytes").UInt(budget_.used());
  w.Key("peak_memory_bytes").UInt(outcome_.peak_memory_bytes);
  if (injector_) {
    w.Key("fault_hits").BeginObject();
    for (std::string_view probe : FaultInjector::ProbeCatalog()) {
      w.Key(std::string(probe)).UInt(injector_->hits(probe));
    }
    w.EndObject();
  }
  w.EndObject();

  w.Key("phases").BeginObject();
  w.Key("parse_ms").Double(NsToMs(phase_times_.parse_ns));
  w.Key("load_ms").Double(NsToMs(phase_times_.load_ns));
  w.Key("analyze_ms").Double(NsToMs(phase_times_.analyze_ns));
  w.Key("absint_ms").Double(NsToMs(phase_times_.absint_ns));
  w.Key("compile_ms").Double(NsToMs(phase_times_.compile_ns));
  w.Key("eval_ms").Double(NsToMs(phase_times_.eval_ns));
  w.Key("saturate_ms").Double(NsToMs(s.saturate_ns));
  w.Key("gamma_ms").Double(NsToMs(s.gamma_ns));
  w.EndObject();

  w.Key("fixpoint").BeginObject();
  w.Key("saturation_rounds").UInt(s.saturation_rounds);
  w.Key("gamma_firings").UInt(s.gamma_firings);
  w.Key("stages_assigned").UInt(s.stages_assigned);
  w.Key("solutions").UInt(s.exec.solutions);
  w.Key("inserts").UInt(s.exec.inserts);
  w.Key("scan_rows").UInt(s.exec.scan_rows);
  w.EndObject();

  // Join-planner decisions: the goal order each generator plan ended up
  // with, annotated with the estimates that drove the picks — and, when
  // metrics were on, the EXPLAIN ANALYZE actuals measured through the
  // executor (probes / rows touched / matches per goal) with the
  // misestimation factor actual/estimated. Present only for rules the
  // planner actually recorded decisions for.
  const std::vector<std::vector<GoalStats>>& goal_stats =
      driver_->goal_stats();
  w.Key("plans").BeginArray();
  for (const CompiledRule& r : driver_->rules()) {
    if (r.plan_decisions.empty()) continue;
    w.BeginObject();
    w.Key("rule").UInt(r.rule_index);
    w.Key("goals").BeginArray();
    for (const PlanDecision& d : r.plan_decisions) {
      w.BeginObject();
      w.Key("goal").String(d.goal);
      if (d.filter) w.Key("filter").Bool(true);
      if (d.negated) w.Key("negated").Bool(true);
      if (!d.filter) {
        w.Key("arity").UInt(d.arity);
        w.Key("bound_cols").UInt(d.bound_cols);
        if (d.est_rows >= 0) w.Key("est_rows").Double(d.est_rows);
        if (d.goal_id >= 0 && r.rule_index < goal_stats.size() &&
            static_cast<size_t>(d.goal_id) <
                goal_stats[r.rule_index].size()) {
          const GoalStats& gs =
              goal_stats[r.rule_index][static_cast<size_t>(d.goal_id)];
          w.Key("goal_id").Int(d.goal_id);
          w.Key("actual").BeginObject();
          w.Key("probes").UInt(gs.probes);
          w.Key("rows").UInt(gs.rows);
          w.Key("matches").UInt(gs.matches);
          const double actual_rows =
              gs.probes > 0 ? static_cast<double>(gs.matches) /
                                  static_cast<double>(gs.probes)
                            : 0.0;
          w.Key("actual_rows").Double(actual_rows);
          if (d.est_rows > 0 && gs.probes > 0) {
            w.Key("misestimate").Double(actual_rows / d.est_rows);
          }
          w.EndObject();
        }
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  w.Key("rules").BeginArray();
  const std::vector<RuleProfile>& profiles = driver_->rule_profiles();
  for (size_t i = 0; i < profiles.size(); ++i) {
    const RuleProfile& p = profiles[i];
    if (p.head.empty()) continue;  // no compiled rule at this index
    w.BeginObject();
    w.Key("rule").UInt(i);
    w.Key("head").String(p.head);
    w.Key("kind").String(p.kind);
    w.Key("recursive").Bool(p.recursive);
    w.Key("invocations").UInt(p.invocations);
    w.Key("firings").UInt(p.firings);
    w.Key("tuples").UInt(p.tuples);
    w.Key("dedup_hits").UInt(p.dedup_hits);
    w.Key("candidates").UInt(p.candidates);
    w.Key("wall_ms").Double(NsToMs(p.wall_ns));
    w.EndObject();
  }
  w.EndArray();

  w.Key("queues").BeginArray();
  for (const CompiledRule& r : driver_->rules()) {
    if (r.gamma_index < 0) continue;
    const CandidateQueueStats* q = driver_->QueueStats(r.gamma_index);
    if (q == nullptr) continue;
    w.BeginObject();
    w.Key("gamma").Int(r.gamma_index);
    w.Key("rule").UInt(r.rule_index);
    w.Key("inserted").UInt(q->inserted);
    w.Key("merged").UInt(q->merged);
    w.Key("redundant").UInt(q->redundant);
    w.Key("fired").UInt(q->fired);
    w.Key("max_queue").UInt(q->max_queue);
    w.EndObject();
  }
  w.EndArray();

  // Provenance: annotation volume and the choice-audit trail (capped so
  // a long run cannot blow up the report; the full trail stays queryable
  // via Engine::ChoiceAudit / shell .choices).
  {
    w.Key("provenance").BeginObject();
    w.Key("enabled").Bool(catalog_->provenance_enabled());
    size_t rows = 0, premises = 0;
    for (PredicateId id = 0; id < catalog_->size(); ++id) {
      rows += catalog_->relation(id).provenance_rows();
      premises += catalog_->relation(id).provenance_premises();
    }
    w.Key("rows_annotated").UInt(rows);
    w.Key("premises").UInt(premises);
    w.EndObject();

    w.Key("choices");
    const ChoiceAuditTrail* audit = driver_->choice_audit();
    if (audit == nullptr) {
      w.Null();
    } else {
      constexpr size_t kMaxEntries = 256;
      const auto& entries = audit->entries();
      w.BeginObject();
      w.Key("total").UInt(entries.size());
      w.Key("truncated").Bool(entries.size() > kMaxEntries);
      w.Key("entries").BeginArray();
      const size_t n = std::min(entries.size(), kMaxEntries);
      for (size_t i = 0; i < n; ++i) {
        const ChoiceAuditEntry& e = entries[i];
        w.BeginObject();
        w.Key("firing").UInt(e.firing);
        w.Key("rule").UInt(e.rule_index);
        w.Key("gamma").Int(e.gamma_index);
        if (e.stage >= 0) w.Key("stage").Int(e.stage);
        w.Key("witness").String(e.witness);
        w.Key("cost").String(store_->ToString(e.cost));
        w.Key("candidate_set").UInt(e.candidate_set);
        w.Key("pops").UInt(e.pops);
        w.Key("ties").UInt(e.ties);
        w.Key("rejected_extremum").UInt(e.rejected_extremum);
        w.Key("rejected_fd").UInt(e.rejected_fd);
        w.Key("rejected_post").UInt(e.rejected_post);
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
  }

  // Lint summary, same code scheme as the standalone diagnostics JSON
  // (--lint-json), so report consumers see compile-time findings too.
  w.Key("diagnostics").BeginObject();
  w.Key("errors").UInt(lint.counts.errors);
  w.Key("warnings").UInt(lint.counts.warnings);
  w.Key("notes").UInt(lint.counts.notes);
  w.Key("codes").BeginArray();
  for (const Diagnostic& d : lint.diagnostics) w.String(d.code);
  w.EndArray();
  w.EndObject();

  // Durability: WAL/checkpoint activity and what recovery found on open
  // (null for a purely in-memory engine).
  w.Key("durability");
  if (durable_ == nullptr) {
    w.Null();
  } else {
    const DurableStore::Stats ds = durable_->stats();
    const DurableStore::RecoveryInfo& rec = durable_->recovery();
    uint64_t edb_relations = 0, edb_facts = 0;
    for (const size_t rows : edb_rows_) {
      edb_relations += rows != 0 ? 1 : 0;
      edb_facts += rows;
    }
    w.BeginObject();
    w.Key("dir").String(durable_->dir());
    w.Key("fsync").String(std::string(FsyncPolicyName(
        durable_->fsync_policy())));
    w.Key("wal_seq").UInt(durable_->wal_seq());
    w.Key("snapshot_seq").UInt(durable_->snapshot_seq());
    w.Key("wal_appends").UInt(ds.wal_appends);
    w.Key("wal_fsyncs").UInt(ds.wal_fsyncs);
    w.Key("wal_bytes_appended").UInt(ds.wal_bytes_appended);
    w.Key("wal_size_bytes").UInt(ds.wal_size_bytes);
    w.Key("checkpoints").UInt(ds.checkpoints);
    w.Key("checkpoint_bytes").UInt(ds.checkpoint_bytes);
    w.Key("checkpoint_failures").UInt(ds.checkpoint_failures);
    w.Key("edb_relations").UInt(edb_relations);
    w.Key("edb_facts").UInt(edb_facts);
    w.Key("recovery").BeginObject();
    w.Key("opened_existing").Bool(rec.opened_existing);
    w.Key("snapshot_relations").UInt(rec.snapshot_relations);
    w.Key("snapshot_facts").UInt(rec.snapshot_facts);
    w.Key("wal_records_replayed").UInt(rec.wal_records_replayed);
    w.Key("wal_valid_bytes").UInt(rec.wal_valid_bytes);
    w.Key("wal_dropped_bytes").UInt(rec.wal_dropped_bytes);
    w.Key("wal_tail_dropped").Bool(rec.wal_tail_dropped);
    w.EndObject();
    w.EndObject();
  }

  // Static-analysis result: inferred signatures, intervals, and
  // cardinality bounds.
  w.Key("analysis");
  absint::AnalysisToJson(*analysis, &w);

  w.Key("metrics");
  if (metrics_ != nullptr) {
    RefreshRuntimeMetrics();
    metrics_->SnapshotJson(&w);
  } else {
    w.Null();
  }
  w.EndObject();
  return w.Take();
}

Result<std::string> Engine::ExplainAnalyzeText() const {
  if (!ran_) return Status::InvalidArgument("call Run first");
  const std::vector<std::vector<GoalStats>>& goal_stats =
      driver_->goal_stats();
  const std::vector<RuleProfile>& profiles = driver_->rule_profiles();
  std::string out = "% EXPLAIN ANALYZE (per-goal estimated vs actual rows; "
                    "x = actual/est, >1 under-estimated)\n";
  for (const CompiledRule& r : driver_->rules()) {
    if (r.plan_decisions.empty()) continue;
    const std::string& head = r.rule_index < profiles.size()
                                  ? profiles[r.rule_index].head
                                  : std::string();
    AppendF(&out, "%% rule %u (%s):\n", r.rule_index, head.c_str());
    for (const PlanDecision& d : r.plan_decisions) {
      if (d.filter) {
        AppendF(&out, "%%   filter %s\n", d.goal.c_str());
        continue;
      }
      AppendF(&out, "%%   %s %-24s bound=%u",
              d.negated ? "negated" : "goal   ", d.goal.c_str(),
              d.bound_cols);
      if (d.est_rows >= 0) AppendF(&out, "  est=%.1f", d.est_rows);
      if (d.goal_id >= 0 && r.rule_index < goal_stats.size() &&
          static_cast<size_t>(d.goal_id) < goal_stats[r.rule_index].size()) {
        const GoalStats& gs =
            goal_stats[r.rule_index][static_cast<size_t>(d.goal_id)];
        const double actual_rows =
            gs.probes > 0 ? static_cast<double>(gs.matches) /
                                static_cast<double>(gs.probes)
                          : 0.0;
        AppendF(&out, "  probes=%llu rows=%llu matches=%llu actual=%.2f",
                static_cast<unsigned long long>(gs.probes),
                static_cast<unsigned long long>(gs.rows),
                static_cast<unsigned long long>(gs.matches), actual_rows);
        if (d.est_rows > 0 && gs.probes > 0) {
          AppendF(&out, "  x%.2f", actual_rows / d.est_rows);
        }
      }
      out += '\n';
    }
  }
  // Analysis-vs-actual cardinality gap: the abstract interpreter's row
  // bounds for derived (IDB) predicates against the relation sizes the
  // run actually produced. "within" marks bounds the run respected.
  GDLOG_ASSIGN_OR_RETURN(const absint::AnalysisResult* analysis,
                         StaticAnalysis());
  bool header = false;
  for (const absint::PredicateSignature& sig : analysis->signatures) {
    if (!sig.populated || sig.edb_seeded) continue;
    const Relation* rel = Find(sig.name, sig.arity);
    const uint64_t actual = rel ? rel->size() : 0;
    if (!header) {
      out += "% analysis cardinality bounds vs actual rows (IDB)\n";
      header = true;
    }
    const std::string bound =
        "[" + std::to_string(sig.card.lo) + ", " +
        (sig.card.hi_finite() ? std::to_string(sig.card.hi)
                              : std::string("inf")) +
        "]";
    AppendF(&out, "%%   %-24s bound=%-18s actual=%llu %s\n",
            sig.DisplayName().c_str(), bound.c_str(),
            static_cast<unsigned long long>(actual),
            sig.card.Contains(actual) ? "within" : "OUTSIDE");
  }
  return out;
}

Status Engine::WriteTrace(const std::string& path) const {
  if (!tracer_) {
    return Status::InvalidArgument(
        "tracing disabled: set EngineOptions::obs.enabled");
  }
  return tracer_->WriteChromeTrace(path);
}

std::string Engine::DumpFlightRecorder() const {
  if (!recorder_) {
    return "flight recorder disabled "
           "(EngineOptions::obs.recorder_enabled = false)\n";
  }
  return recorder_->DumpText();
}

uint64_t Engine::uptime_seconds() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
}

void Engine::RefreshRuntimeMetrics() const {
  if (metrics_ == nullptr) return;
  metrics_->GetGauge("engine.uptime_seconds")
      ->Set(static_cast<int64_t>(uptime_seconds()));
  // One 0/1 gauge per lifecycle state (the node_exporter "state set"
  // convention): dashboards sum the family to 1 and alert on the label.
  const EngineRunState current = run_state();
  for (const EngineRunState s :
       {EngineRunState::kIdle, EngineRunState::kRunning,
        EngineRunState::kCompleted, EngineRunState::kStopped}) {
    metrics_->GetGauge("engine.run_state", {{"state", EngineRunStateName(s)}})
        ->Set(s == current ? 1 : 0);
  }
}

std::string Engine::StatuszJson() const {
  const BuildInfo& bi = GetBuildInfo();
  JsonWriter w;
  w.BeginObject();
  w.Key("build").BeginObject();
  w.Key("version").String(bi.version);
  w.Key("git_sha").String(bi.git_sha);
  w.Key("compiler").String(bi.compiler);
  w.Key("sanitizer").String(bi.sanitizer);
  w.EndObject();
  w.Key("uptime_seconds").UInt(uptime_seconds());
  w.Key("run_state").String(EngineRunStateName(run_state()));
  w.Key("tracked_memory_bytes").UInt(budget_.used());
  FlightRecorder::Event last;
  if (recorder_ && recorder_->LastProgress(&last)) {
    w.Key("progress").BeginObject();
    w.Key("seq").UInt(last.seq);
    w.Key("kind").String(FlightEventKindName(last.kind));
    w.Key("round").UInt(last.run.round);
    w.Key("tuples").UInt(last.run.tuples);
    w.Key("gamma_firings").UInt(last.run.gamma_firings);
    w.Key("stages").UInt(last.run.stages);
    w.EndObject();
  } else {
    w.Key("progress").Null();
  }
  w.EndObject();
  return w.Take();
}

Result<std::string> Engine::MetricsText() const {
  if (metrics_ == nullptr) {
    return Status::InvalidArgument(
        "metrics disabled: set EngineOptions::obs.metrics_enabled");
  }
  RefreshRuntimeMetrics();
  return metrics_->PrometheusText();
}

Status Engine::WriteMetricsText(const std::string& path) const {
  GDLOG_ASSIGN_OR_RETURN(std::string text, MetricsText());
  // Write-to-temp + atomic rename: a scraper reading `path` sees either
  // the previous complete exposition or the new one, never a torn file.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open metrics file: " + tmp);
  }
  const size_t n = std::fwrite(text.data(), 1, text.size(), f);
  const int close_err = std::fclose(f);
  if (n != text.size() || close_err != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to metrics file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename metrics file into place: " + path);
  }
  return Status::OK();
}

Result<std::string> Engine::RewrittenProgramText() const {
  if (!program_) return Status::InvalidArgument("no program loaded");
  GDLOG_ASSIGN_OR_RETURN(Program full, FullSemanticExpansion(*program_));
  full.facts = program_->facts;
  return ProgramToString(*store_, full);
}

Result<std::string> Engine::AnalysisReport() const {
  if (!program_) return Status::InvalidArgument("no program loaded");
  const StageAnalysis& a = *analysis_;
  const DependencyGraph& g = *a.graph;
  std::string out;
  for (uint32_t scc : a.clique_order) {
    const CliqueStageInfo& cl = a.cliques[scc];
    if (cl.rules.empty() && !g.IsRecursive(scc)) continue;  // pure EDB
    out += "clique {";
    for (size_t i = 0; i < cl.members.size(); ++i) {
      if (i) out += ", ";
      const PredIndex p = cl.members[i];
      out += g.name(p) + "/" + std::to_string(g.arity(p));
      if (a.stage_arg[p] >= 0) {
        out += " [stage arg " + std::to_string(a.stage_arg[p]) + "]";
      }
    }
    out += "}: ";
    out += CliqueClassName(cl.cls);
    if (g.IsRecursive(scc)) out += ", recursive";
    if (cl.has_next_rules) out += ", next rules";
    if (!cl.diagnostic.empty()) out += "\n  note: " + cl.diagnostic;
    out += "\n";
    for (uint32_t ri : cl.rules) {
      out += "  rule " + std::to_string(program_->ClauseOf(ri)) + ": ";
      switch (a.rule_info[ri].kind) {
        case RuleKind::kExit:
          out += "exit";
          break;
        case RuleKind::kFlat:
          out += "flat";
          break;
        case RuleKind::kNext:
          out += "next (stage var " + a.rule_info[ri].stage_var + ")";
          break;
      }
      out += "\n";
    }
  }
  return out;
}

Result<LintResult> Engine::Lint(const LintOptions& options) const {
  if (!program_) return Status::InvalidArgument("no program loaded");
  LintOptions opts = options;
  // Default the stage options to the engine's, so Lint agrees with what
  // LoadProgram accepted.
  opts.stage = options_.stage;
  LintResult result = LintProgram(*program_, opts);
  // Merge in the abstract interpreter's findings (types, intervals,
  // emptiness, choice determinism), keeping the combined list sorted the
  // same way the structural lints are.
  GDLOG_ASSIGN_OR_RETURN(const absint::AnalysisResult* ai, StaticAnalysis());
  result.diagnostics.insert(result.diagnostics.end(), ai->diagnostics.begin(),
                            ai->diagnostics.end());
  SortDiagnostics(&result.diagnostics);
  result.counts = CountDiagnostics(result.diagnostics);
  return result;
}

Result<const absint::AnalysisResult*> Engine::StaticAnalysis() const {
  if (!program_) return Status::InvalidArgument("no program loaded");
  if (!absint_) {
    const uint64_t t0 = WallNowNs();
    {
      TraceSpan span(tracer_.get(), "absint", "engine");
      // Derived rows share the relations with the EDB once Run has
      // started; only the EDB rows seed the analysis.
      absint_ = std::make_unique<absint::AnalysisResult>(
          absint::AnalyzeProgram(*program_, analysis_->expanded, *catalog_,
                                 &edb_rows_));
    }
    phase_times_.absint_ns += WallNowNs() - t0;
  }
  return absint_.get();
}

Result<std::string> Engine::TypeSignaturesText() const {
  GDLOG_ASSIGN_OR_RETURN(const absint::AnalysisResult* ai, StaticAnalysis());
  return absint::SignaturesText(*ai);
}

Result<StableCheckResult> Engine::VerifyStableModel() const {
  if (!ran_) return Status::InvalidArgument("call Run first");
  // Collect chosen tuples per gamma index, matching RewriteChoice order.
  int max_gamma = -1;
  for (const CompiledRule& r : driver_->rules()) {
    max_gamma = std::max(max_gamma, r.gamma_index);
  }
  std::vector<std::vector<std::vector<Value>>> chosen(max_gamma + 1);
  for (const CompiledRule& r : driver_->rules()) {
    if (r.gamma_index >= 0) {
      chosen[r.gamma_index] = driver_->choice_runtime().ChosenTuples(
          r.gamma_index);
    }
  }
  return CheckStableModel(*program_, *catalog_, store_.get(), chosen,
                          edb_rows_);
}

std::vector<std::string> Engine::RuleTexts() const {
  std::vector<std::string> texts;
  if (!program_) return texts;
  for (size_t ri = 0; ri < program_->rules.size(); ++ri) {
    const uint32_t clause = program_->ClauseOf(ri);
    if (texts.size() <= clause) texts.resize(clause + 1);
    texts[clause] = RuleToString(*store_, program_->rules[ri]);
  }
  return texts;
}

Result<ProofNode> Engine::WhyRow(PredicateId pred, RowId row,
                                 uint32_t max_depth) const {
  if (!ran_) return Status::InvalidArgument("call Run first");
  if (!catalog_->provenance_enabled()) {
    return Status::InvalidArgument(
        "provenance disabled: set EngineOptions::provenance");
  }
  return BuildProofTree(*catalog_, *store_, pred, row, RuleTexts(),
                        max_depth);
}

Result<ProofNode> Engine::Why(std::string_view predicate,
                              const std::vector<Value>& tuple,
                              uint32_t max_depth) const {
  const PredicateId id =
      catalog_->Lookup(predicate, static_cast<uint32_t>(tuple.size()));
  if (id == kNoPredicate) {
    return Status::InvalidArgument("unknown predicate: " +
                                   std::string(predicate) + "/" +
                                   std::to_string(tuple.size()));
  }
  const Relation& rel = catalog_->relation(id);
  const RowId row = rel.Find(TupleView(tuple));
  if (row == kNoRow) {
    return Status::InvalidArgument("tuple not in the model: " + rel.name() +
                                   TupleToString(*store_, TupleView(tuple)));
  }
  return WhyRow(id, row, max_depth);
}

Result<std::pair<PredicateId, RowId>> Engine::ResolveWhyTarget(
    const std::string& target) {
  if (target.find('(') != std::string::npos) {
    // A ground atom: parse it as a one-fact program.
    GDLOG_ASSIGN_OR_RETURN(Program p,
                           ParseProgram(store_.get(), target + "."));
    if (!p.rules.empty() || p.facts.size() != 1 || p.facts[0].count != 1) {
      return Status::InvalidArgument("expected one ground atom: " + target);
    }
    const FactBatch& fact = p.facts[0];
    const PredicateId id = catalog_->Lookup(fact.predicate, fact.arity);
    if (id == kNoPredicate) {
      return Status::InvalidArgument("unknown predicate: " + fact.predicate);
    }
    const RowId row = catalog_->relation(id).Find(TupleView(fact.rows));
    if (row == kNoRow) {
      return Status::InvalidArgument("tuple not in the model: " + target);
    }
    return std::make_pair(id, row);
  }
  // "pred/arity": the relation's most recently derived row.
  const size_t slash = target.rfind('/');
  if (slash == std::string::npos) {
    return Status::InvalidArgument(
        "expected a ground atom or pred/arity spec: " + target);
  }
  uint32_t arity = 0;
  for (size_t i = slash + 1; i < target.size(); ++i) {
    if (target[i] < '0' || target[i] > '9') {
      return Status::InvalidArgument("bad arity in spec: " + target);
    }
    arity = arity * 10 + static_cast<uint32_t>(target[i] - '0');
  }
  const PredicateId id = catalog_->Lookup(target.substr(0, slash), arity);
  if (id == kNoPredicate) {
    return Status::InvalidArgument("unknown predicate: " + target);
  }
  const Relation& rel = catalog_->relation(id);
  if (rel.empty()) {
    return Status::InvalidArgument("relation is empty: " + target);
  }
  return std::make_pair(id, static_cast<RowId>(rel.size() - 1));
}

Result<std::string> Engine::WhyText(const std::string& target,
                                    uint32_t max_depth) {
  GDLOG_ASSIGN_OR_RETURN(auto at, ResolveWhyTarget(target));
  GDLOG_ASSIGN_OR_RETURN(ProofNode tree,
                         WhyRow(at.first, at.second, max_depth));
  return ProofTreeText(tree);
}

Result<std::string> Engine::WhyJson(const std::string& target,
                                    uint32_t max_depth) {
  GDLOG_ASSIGN_OR_RETURN(auto at, ResolveWhyTarget(target));
  GDLOG_ASSIGN_OR_RETURN(ProofNode tree,
                         WhyRow(at.first, at.second, max_depth));
  JsonWriter w;
  ProofTreeJson(tree, &w);
  return w.Take();
}

Result<std::string> Engine::WhyDot(const std::string& target,
                                   uint32_t max_depth) {
  GDLOG_ASSIGN_OR_RETURN(auto at, ResolveWhyTarget(target));
  GDLOG_ASSIGN_OR_RETURN(ProofNode tree,
                         WhyRow(at.first, at.second, max_depth));
  return ProofTreeDot(tree);
}

const ChoiceAuditTrail* Engine::ChoiceAudit() const {
  return driver_ ? driver_->choice_audit() : nullptr;
}

Result<std::string> Engine::ChoiceAuditText() const {
  if (!ran_) return Status::InvalidArgument("call Run first");
  const ChoiceAuditTrail* audit = ChoiceAudit();
  if (audit == nullptr) {
    return Status::InvalidArgument(
        "choice audit disabled: set EngineOptions::provenance");
  }
  return gdlog::ChoiceAuditText(*audit, *store_);
}

}  // namespace gdlog
