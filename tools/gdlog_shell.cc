// gdlog_shell — command-line driver for the engine.
//
//   gdlog_shell PROGRAM.dl [options]        batch mode
//   gdlog_shell --interactive [options]     dot-command REPL on stdin
//
// Batch options:
//   --query pred/arity   print one relation (repeatable; default: all IDB)
//   --seed N             choice tie-break seed (explore stable models)
//   --lint               lint only: print diagnostics, exit 1 on errors
//   --lint-json          like --lint, but machine-readable JSON
//   --report             print the Section 4 analysis report
//   --rewrite            print the first-order rewriting (Sections 2-3)
//   --verify             run the Gelfond-Lifschitz stable-model check
//   --stats              print evaluation statistics (per-rule profiles)
//   --provenance         record derivation provenance and the choice audit
//   --why TARGET         print a proof tree (repeatable; implies --provenance)
//   --why-dot TARGET     like --why, but Graphviz DOT output
//   --choices            print the choice-audit trail (implies --provenance)
//   --explain-analyze    per-goal planner estimates vs measured actuals
//   --json-report        print the machine-readable run report JSON
//   --metrics-out PATH   write metrics in Prometheus text format
//                        (atomic: temp file + rename, scraper-safe)
//   --serve-obs PORT     serve the live observability endpoint on
//                        127.0.0.1:PORT for the process lifetime
//                        (0 = ephemeral; the bound port is announced on
//                        stderr). Endpoints: /metrics /healthz /statusz
//                        /runs /runs/last /trace /blackbox /progress
//   --serve-linger-ms N  keep serving N ms after the run finished (lets
//                        scrapers collect /runs/last before exit)
//   --progress           stderr ticker: one line per fixpoint round
//   --trace PATH         record a phase timeline, write Chrome trace JSON
//   --no-merge           disable congruence merging ((R,Q,L) ablation)
//   --linear-least       naive linear-scan retrieval instead of the heap
//   --no-planner         parser-order joins (cost-based planner ablation)
//   --deadline-ms N      stop the run after N wall-clock milliseconds
//   --max-tuples N       stop after N derived tuples
//   --max-stages N       stop after N next-rule stage advances
//   --max-memory-mb N    stop when tracked memory exceeds N MiB
//   --faults SPEC        deterministic fault injection (probe[@N],...)
//   --db-dir PATH        durable database directory (WAL + checkpoints);
//                        inline facts are WAL-logged, recovered EDB facts
//                        from a previous run are replayed on open
//   --fsync POLICY       WAL fsync policy: always | batch | off
//   --checkpoint-every N snapshot automatically every N logged mutations
//
// Numeric values must be base-10 integers in range; a malformed one is a
// usage error (exit 2), so `--max-tuples 0x10` never silently disables
// the cap.
//
// A run stopped by a limit (or by SIGINT) is a *bounded stop*: the shell
// prints the termination reason plus whatever partial results were asked
// for, and exits 3 (hard errors exit 1). A second SIGINT exits at once.
//
// With --lint/--lint-json the program is parsed and analyzed but never
// evaluated; --query specs become the lint's query roots (enabling the
// unreachable-rule check GD010). Diagnostics include the abstract
// interpreter's findings (GD012/GD013/GD3xx), and the JSON output
// carries the inferred signatures under an "analysis" key (absent when
// the program fails to load). Evaluation never computes the analysis;
// only the outputs that show it do (--lint, --json-report,
// --explain-analyze, --serve-obs's run report, .types).
//
// A --why/--why-dot TARGET is either a ground atom (`prm(0,1,0,4)`) or
// `pred/arity` for the relation's most recently derived row.
//
// Interactive commands (see .help):
//   .load PATH | .run | .query pred/arity | .lint | .types | .stats | .json
//   .explain | .blackbox | .metrics [PATH]
//   .why [text|json|dot] TARGET | .choices | .provenance on|off
//   .report | .rewrite | .verify | .trace on [PATH] | .trace off
//   .serve [PORT] | .serve off
//   .open DIR [POLICY] | .save | .seed N | .quit
//
// Example:
//   $ gdlog_shell prim.dl --query prm/4 --verify --trace prim_trace.json
//   $ printf '.load prim.dl\n.run\n.stats\n' | gdlog_shell --interactive
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/absint/absint.h"
#include "analysis/diagnostics.h"
#include "analysis/lint.h"
#include "api/engine.h"
#include "obs/json.h"
#include "storage/tuple.h"

namespace {

// Exit code for a run ended by a guardrail (limit, cancel, OOM) with its
// partial results printed; distinct from 1 = hard error.
constexpr int kExitBoundedStop = 3;

// SIGINT handling: the first Ctrl-C cancels the in-flight run (one
// relaxed atomic store — async-signal-safe), the second aborts the
// process. With no run in flight SIGINT exits immediately.
std::atomic<gdlog::Engine*> g_active_engine{nullptr};
std::atomic<int> g_sigint_count{0};

extern "C" void HandleSigint(int) {
  const int n = g_sigint_count.fetch_add(1, std::memory_order_relaxed) + 1;
  gdlog::Engine* engine = g_active_engine.load(std::memory_order_relaxed);
  if (engine == nullptr || n >= 2) _exit(130);
  engine->RequestCancel();
}

void InstallSigintHandler() {
  struct sigaction sa = {};
  sa.sa_handler = HandleSigint;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGINT, &sa, nullptr);
}

/// Runs the engine with the SIGINT-cancel window open.
gdlog::Status RunWithCancel(gdlog::Engine* engine) {
  g_sigint_count.store(0, std::memory_order_relaxed);
  g_active_engine.store(engine, std::memory_order_relaxed);
  const gdlog::Status st = engine->Run();
  g_active_engine.store(nullptr, std::memory_order_relaxed);
  return st;
}

/// --progress: a background thread draining the engine's flight recorder
/// to stderr, one status line per ~100ms (the ring is multi-reader, so
/// the ticker composes with a concurrent /progress SSE stream). The
/// destructor drains once more, so the terminal event always prints.
class ProgressTicker {
 public:
  explicit ProgressTicker(const gdlog::Engine* engine) : engine_(engine) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~ProgressTicker() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    uint64_t cursor = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      cursor = Drain(cursor);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    Drain(cursor);
  }

  /// Prints the newest round/stage/termination event of the batch
  /// (natural rate limiting: fast runs produce many rounds per poll, one
  /// line summarizes them).
  uint64_t Drain(uint64_t cursor) {
    const gdlog::FlightRecorder* ring = engine_->flight_recorder();
    if (ring == nullptr) return cursor;
    const std::vector<gdlog::FlightRecorder::Event> events =
        ring->Since(cursor);
    for (auto it = events.rbegin(); it != events.rend(); ++it) {
      if (gdlog::IsRunProgress(it->kind) &&
          it->kind != gdlog::FlightEventKind::kRunStart) {
        PrintLine(*it);
        break;
      }
    }
    return events.empty() ? cursor : events.back().seq;
  }

  /// One status line:
  ///   % round 12  +345 delta  5678 tuples  3 stages  1.2 MiB
  ///   % run completed  round 12  5678 tuples  3 stages  1.2 MiB
  static void PrintLine(const gdlog::FlightRecorder::Event& e) {
    const gdlog::RunCounters& run = e.run;
    std::string head;
    if (e.kind == gdlog::FlightEventKind::kTermination) {
      head = "run " +
             std::string(gdlog::TerminationReasonName(
                 static_cast<gdlog::TerminationReason>(e.a0))) +
             "  round " + std::to_string(run.round);
    } else {
      const bool round = e.kind == gdlog::FlightEventKind::kRound;
      head = "round " + std::to_string(run.round) + "  +" +
             std::to_string(round ? e.a0 : 0) + " delta";
    }
    std::fprintf(stderr, "%% %s  %llu tuples  %llu stages  %.1f MiB\n",
                 head.c_str(), (unsigned long long)run.tuples,
                 (unsigned long long)run.stages,
                 static_cast<double>(run.memory_bytes) / (1024.0 * 1024.0));
  }

  const gdlog::Engine* engine_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Announces the live endpoint (parseable by scripts waiting on it).
void AnnounceObsEndpoint(const gdlog::Engine& engine) {
  if (engine.obs_server() != nullptr) {
    std::fprintf(stderr, "%% obs endpoint: http://127.0.0.1:%u\n",
                 engine.obs_http_port());
  }
}

void PrintTermination(const gdlog::Engine& engine) {
  const gdlog::RunOutcome& o = engine.outcome();
  std::fprintf(stderr, "%% run stopped: %.*s\n",
               static_cast<int>(gdlog::TerminationReasonName(o.reason).size()),
               gdlog::TerminationReasonName(o.reason).data());
  std::fprintf(stderr, "%%   %s\n", o.status.ToString().c_str());
  std::fprintf(stderr,
               "%%   partial results retained (%llu guard checks, peak "
               "tracked memory %llu bytes)\n",
               static_cast<unsigned long long>(o.guard_checks),
               static_cast<unsigned long long>(o.peak_memory_bytes));
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s PROGRAM.dl [--query pred/arity]... [--seed N] "
               "[--lint] [--lint-json] "
               "[--report] [--rewrite] [--verify] [--stats] "
               "[--provenance] [--why TARGET]... [--why-dot TARGET]... "
               "[--choices] "
               "[--explain-analyze] [--json-report] [--metrics-out PATH] "
               "[--serve-obs PORT] [--serve-linger-ms N] [--progress] "
               "[--trace PATH] [--no-merge] [--linear-least] "
               "[--no-planner] "
               "[--deadline-ms N] [--max-tuples N] [--max-stages N] "
               "[--max-memory-mb N] [--faults SPEC] "
               "[--db-dir PATH] [--fsync always|batch|off] "
               "[--checkpoint-every N]\n"
               "       %s --interactive [options]\n",
               argv0, argv0);
}

struct Query {
  std::string pred;
  uint32_t arity = 0;
};

/// Parses `text` as a base-10 integer in [0, max]. The whole string must
/// be digits: no sign, base prefix, spaces or trailing characters.
bool ParseUint(std::string_view text, uint64_t* out,
               uint64_t max = UINT64_MAX) {
  uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v > max) return false;
  *out = v;
  return true;
}

/// ParseUint for a batch flag's value; prints `bad FLAG VALUE` on error.
bool ParseFlagUint(const std::string& flag, const char* value, uint64_t* out,
                   uint64_t max = UINT64_MAX) {
  if (ParseUint(value, out, max)) return true;
  std::fprintf(stderr, "bad %s %s (want an integer in 0..%llu)\n",
               flag.c_str(), value, static_cast<unsigned long long>(max));
  return false;
}

bool ParseQuerySpec(const std::string& spec, Query* q) {
  const auto slash = spec.find('/');
  if (slash == std::string::npos) return false;
  q->pred = spec.substr(0, slash);
  q->arity = static_cast<uint32_t>(std::atoi(spec.c_str() + slash + 1));
  return true;
}

void PrintRelation(const gdlog::Engine& engine, const std::string& pred,
                   uint32_t arity) {
  const gdlog::Relation* rel = engine.Find(pred, arity);
  std::printf("%% %s/%u (%zu facts)\n", pred.c_str(), arity,
              rel ? rel->size() : 0);
  if (!rel) return;
  for (const auto& row : engine.Query(pred, arity)) {
    std::printf("%s%s.\n", pred.c_str(),
                gdlog::TupleToString(engine.store(),
                                     gdlog::TupleView(row))
                    .c_str());
  }
}

/// One percentile row of the `.stats` histogram table; silent when the
/// histogram was never registered or never recorded.
void PrintHistPercentiles(const char* label, const gdlog::Histogram* h,
                          double scale, const char* unit) {
  if (h == nullptr || h->count() == 0) return;
  std::printf("%%   %-22s p50 %10.1f  p90 %10.1f  p99 %10.1f %-4s (n=%llu)\n",
              label, h->Quantile(0.5) / scale, h->Quantile(0.9) / scale,
              h->Quantile(0.99) / scale, unit,
              static_cast<unsigned long long>(h->count()));
}

void PrintStats(const gdlog::Engine& engine) {
  const gdlog::FixpointStats* s = engine.stats();
  if (s == nullptr) {
    std::printf("%% no run yet\n");
    return;
  }
  if (s->termination != gdlog::TerminationReason::kCompleted) {
    const std::string_view reason =
        gdlog::TerminationReasonName(s->termination);
    std::printf("%% termination: %.*s (partial results)\n",
                static_cast<int>(reason.size()), reason.data());
  }
  const gdlog::EnginePhaseTimes& ph = engine.phase_times();
  std::printf(
      "%% phases (ms): parse %.3f  load %.3f  analyze %.3f  absint %.3f  "
      "compile %.3f  eval %.3f\n",
      ph.parse_ns / 1e6, ph.load_ns / 1e6, ph.analyze_ns / 1e6,
      ph.absint_ns / 1e6, ph.compile_ns / 1e6, ph.eval_ns / 1e6);
  if (s->saturate_ns > 0 || s->gamma_ns > 0) {
    std::printf("%%   eval split: saturate %.3f ms, gamma %.3f ms\n",
                s->saturate_ns / 1e6, s->gamma_ns / 1e6);
  }
  std::printf(
      "%% fixpoint: %llu gamma firings, %llu stages, %llu saturation "
      "rounds, %llu tuples inserted, %llu rows scanned, Q high-water %zu\n",
      static_cast<unsigned long long>(s->gamma_firings),
      static_cast<unsigned long long>(s->stages_assigned),
      static_cast<unsigned long long>(s->saturation_rounds),
      static_cast<unsigned long long>(s->exec.inserts),
      static_cast<unsigned long long>(s->exec.scan_rows),
      s->queues.max_queue);
  const gdlog::MetricsRegistry* m = engine.metrics();
  if (m != nullptr) {
    std::printf("%% histograms (p50/p90/p99):\n");
    PrintHistPercentiles("delta rows/round", m->FindHistogram("seminaive.delta_rows"),
                         1.0, "rows");
    PrintHistPercentiles("pops per gamma fire",
                         m->FindHistogram("choice.pops_per_fire"), 1.0, "pops");
  }
  const std::vector<gdlog::RuleProfile>* profiles = engine.RuleProfiles();
  if (profiles == nullptr) return;
  std::printf("%% %-4s %-18s %-9s %10s %9s %9s %9s %9s %10s %9s %9s\n",
              "rule", "head", "kind", "invoc", "firings", "tuples", "dedup",
              "cands", "wall_ms", "p50_us", "p99_us");
  for (size_t i = 0; i < profiles->size(); ++i) {
    const gdlog::RuleProfile& p = (*profiles)[i];
    if (p.head.empty()) continue;
    std::printf(
        "%% %-4zu %-18s %-9s %10llu %9llu %9llu %9llu %9llu %10.3f", i,
        p.head.c_str(), p.kind,
        static_cast<unsigned long long>(p.invocations),
        static_cast<unsigned long long>(p.firings),
        static_cast<unsigned long long>(p.tuples),
        static_cast<unsigned long long>(p.dedup_hits),
        static_cast<unsigned long long>(p.candidates), p.wall_ns / 1e6);
    if (p.latency != nullptr && p.latency->count() > 0) {
      std::printf(" %9.1f %9.1f", p.latency->Quantile(0.5) / 1e3,
                  p.latency->Quantile(0.99) / 1e3);
    }
    std::printf("\n");
  }
}

/// Lints `text` without evaluating it; returns 0 when error-free.
/// `queries` (pred/arity specs) become the lint's query roots. When the
/// program loads, diagnostics include the abstract interpreter's
/// findings and the JSON output carries the engine's inferred
/// signatures under "analysis", seeded from its catalog (which holds
/// the inline facts); a program that fails to load falls back to the
/// structural linter alone, over the parsed rules and fact batches
/// (which reports the load failure too).
int RunLint(const std::string& name, const std::string& text,
            const std::vector<Query>& queries,
            const gdlog::EngineOptions& options, bool json) {
  gdlog::LintOptions lopts;
  for (const Query& q : queries) {
    lopts.roots.push_back({q.pred, q.arity});
  }
  gdlog::Engine engine(options);
  if (!engine.LoadProgram(text).ok()) {
    lopts.stage = options.stage;
    gdlog::ValueStore store;
    const gdlog::LintResult result = gdlog::LintSource(&store, text, lopts);
    if (json) {
      std::printf("%s\n",
                  gdlog::DiagnosticsJson(result.diagnostics, name).c_str());
    } else {
      std::printf("%s", gdlog::RenderDiagnostics(result.diagnostics, name)
                            .c_str());
    }
    return result.clean() ? 0 : 1;
  }
  auto lr = engine.Lint(lopts);
  if (!lr.ok()) {
    std::fprintf(stderr, "lint error: %s\n", lr.status().ToString().c_str());
    return 1;
  }
  if (json) {
    gdlog::JsonWriter w;
    w.BeginObject();
    gdlog::DiagnosticsJsonContents(lr->diagnostics, name, &w);
    // Lint succeeded, so the program is loaded and the analysis exists.
    w.Key("analysis");
    gdlog::absint::AnalysisToJson(**engine.StaticAnalysis(), &w);
    w.EndObject();
    std::printf("%s\n", w.Take().c_str());
  } else {
    std::printf("%s",
                gdlog::RenderDiagnostics(lr->diagnostics, name).c_str());
  }
  return lr->clean() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Interactive mode
// ---------------------------------------------------------------------------

/// REPL state. Engines are single-shot, so `.run` after a completed run
/// (and every option change) rebuilds the engine from the saved text.
/// With a durable database attached (.open / --db-dir) an engine can
/// exist with no program loaded at all: it holds the recovered EDB,
/// queryable via .query, awaiting a .load.
struct Shell {
  gdlog::EngineOptions options;
  std::string program_path;
  std::string program_text;
  std::unique_ptr<gdlog::Engine> engine;

  bool Reload() {
    engine = std::make_unique<gdlog::Engine>(options);
    if (!engine->durability_status().ok()) {
      std::printf("error: %s\n",
                  engine->durability_status().ToString().c_str());
      engine.reset();
      return false;
    }
    if (program_text.empty()) return true;  // recovered EDB only
    const gdlog::Status st = engine->LoadProgram(program_text);
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      engine.reset();
      return false;
    }
    return true;
  }
};

void PrintHelp() {
  std::printf(
      ".load PATH        load a program (replaces the current one)\n"
      ".run              evaluate to the choice fixpoint\n"
      ".query pred/arity print one relation\n"
      ".lint             compile-time diagnostics for the loaded program\n"
      ".types            inferred predicate signatures (types, intervals,\n"
      "                  cardinality bounds) from the abstract interpreter\n"
      ".stats            per-phase and per-rule evaluation statistics\n"
      ".explain          planner estimates vs measured actuals per goal\n"
      ".why [FMT] TARGET proof tree for a derived tuple (FMT: text|json|dot);\n"
      "                  TARGET is an atom like p(1,2) or pred/arity\n"
      ".choices          choice-audit trail: one line per gamma firing\n"
      ".provenance on|off  record provenance + choice audit on the next .run\n"
      ".blackbox         dump the flight-recorder ring (recent events)\n"
      ".metrics [PATH]   Prometheus text metrics (to PATH or stdout)\n"
      ".json             machine-readable run report (RunReport JSON)\n"
      ".report           Section 4 stage-analysis report\n"
      ".rewrite          first-order rewriting (Sections 2-3)\n"
      ".verify           Gelfond-Lifschitz stable-model check\n"
      ".trace on [PATH]  record a timeline; write Chrome trace on .run\n"
      ".trace off        disable tracing\n"
      ".serve [PORT]     start the live observability HTTP endpoint\n"
      ".serve off        stop serving (takes effect on next reload)\n"
      ".open DIR [POLICY] attach a durable database (WAL + checkpoints);\n"
      "                  recovers any existing state; POLICY: always|batch|off\n"
      ".save             checkpoint the durable database (snapshot + WAL rotate)\n"
      ".seed N           choice tie-break seed\n"
      ".help             this text\n"
      ".quit             exit\n");
}

int RunInteractive(gdlog::EngineOptions options) {
  InstallSigintHandler();
  Shell sh;
  sh.options = std::move(options);
  const bool tty = isatty(STDIN_FILENO);
  std::string line;
  for (;;) {
    if (tty) {
      std::printf("gdlog> ");
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    std::istringstream iss(line);
    std::string cmd, arg1, arg2;
    iss >> cmd >> arg1 >> arg2;
    if (cmd.empty() || cmd[0] == '%' || cmd[0] == '#') continue;

    if (cmd == ".quit" || cmd == ".exit") break;
    if (cmd == ".help") {
      PrintHelp();
    } else if (cmd == ".load") {
      if (arg1.empty()) {
        std::printf("usage: .load PATH\n");
        continue;
      }
      std::ifstream in(arg1);
      if (!in) {
        std::printf("error: cannot open %s\n", arg1.c_str());
        continue;
      }
      std::ostringstream text;
      text << in.rdbuf();
      sh.program_path = arg1;
      sh.program_text = text.str();
      if (sh.Reload()) std::printf("loaded %s\n", arg1.c_str());
    } else if (cmd == ".open") {
      if (arg1.empty()) {
        std::printf("usage: .open DIR [always|batch|off]\n");
        continue;
      }
      sh.options.durability.dir = arg1;
      if (!arg2.empty()) sh.options.durability.fsync = arg2;
      if (!sh.Reload()) {
        sh.options.durability.dir.clear();
        continue;
      }
      const gdlog::DurableStore::RecoveryInfo& rec =
          sh.engine->durable()->recovery();
      if (rec.opened_existing) {
        std::printf("opened %s: snapshot seq %llu (%llu facts), %llu WAL "
                    "record(s) replayed%s\n",
                    arg1.c_str(),
                    static_cast<unsigned long long>(rec.snapshot_seq),
                    static_cast<unsigned long long>(rec.snapshot_facts),
                    static_cast<unsigned long long>(rec.wal_records_replayed),
                    rec.wal_tail_dropped ? " (torn tail dropped)" : "");
      } else {
        const std::string_view pol =
            gdlog::FsyncPolicyName(sh.engine->durable()->fsync_policy());
        std::printf("created %s (fsync=%.*s)\n", arg1.c_str(),
                    static_cast<int>(pol.size()), pol.data());
      }
    } else if (cmd == ".save") {
      if (!sh.engine || sh.engine->durable() == nullptr) {
        std::printf("error: no durable database (.open DIR first)\n");
        continue;
      }
      const gdlog::Status st = sh.engine->Checkpoint();
      if (!st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
        continue;
      }
      const gdlog::DurableStore& d = *sh.engine->durable();
      std::printf("checkpoint: snapshot seq %llu, %llu facts, %llu bytes, "
                  "WAL rotated to seq %llu\n",
                  static_cast<unsigned long long>(d.snapshot_seq()),
                  static_cast<unsigned long long>(d.stats().checkpoint_facts),
                  static_cast<unsigned long long>(d.stats().checkpoint_bytes),
                  static_cast<unsigned long long>(d.wal_seq()));
    } else if (cmd == ".trace") {
      if (arg1 == "on") {
        sh.options.obs.enabled = true;
        sh.options.obs.trace_path =
            arg2.empty() ? "gdlog_trace.json" : arg2;
        std::printf("tracing on -> %s\n",
                    sh.options.obs.trace_path.c_str());
      } else if (arg1 == "off") {
        sh.options.obs = gdlog::ObsOptions{};
        std::printf("tracing off\n");
      } else {
        std::printf("usage: .trace on [PATH] | .trace off\n");
        continue;
      }
      if (!sh.program_text.empty()) sh.Reload();
    } else if (cmd == ".serve") {
      if (arg1 == "off") {
        sh.options.obs_http = gdlog::ObsHttpOptions{};
        std::printf("serving off\n");
        if (sh.engine) sh.Reload();
        continue;
      }
      uint64_t port = 0;
      if (!arg1.empty() && !ParseUint(arg1, &port, UINT16_MAX)) {
        std::printf("error: bad .serve port '%s' (want 0..65535)\n",
                    arg1.c_str());
        continue;
      }
      sh.options.obs_http.enabled = true;
      sh.options.obs_http.port = static_cast<uint16_t>(port);
      // The server lives inside the engine, so rebuild to (re)bind.
      if (!sh.Reload()) continue;
      if (sh.engine->obs_server() == nullptr) {
        std::printf("error: %s\n",
                    sh.engine->obs_http_status().ToString().c_str());
        sh.options.obs_http = gdlog::ObsHttpOptions{};
        continue;
      }
      std::printf("serving http://%s:%u (endpoints: /metrics /healthz "
                  "/statusz /runs /runs/last /trace /blackbox /progress)\n",
                  sh.options.obs_http.bind_address.c_str(),
                  sh.engine->obs_http_port());
    } else if (cmd == ".seed") {
      if (!ParseUint(arg1, &sh.options.eval.choice_seed)) {
        std::printf("error: bad .seed '%s' (want a base-10 integer)\n",
                    arg1.c_str());
        continue;
      }
      if (!sh.program_text.empty()) sh.Reload();
    } else if (cmd == ".run") {
      if (!sh.engine && !sh.program_text.empty()) sh.Reload();
      if (!sh.engine) {
        std::printf("error: no program loaded (.load PATH first)\n");
        continue;
      }
      if (sh.engine->has_run() && !sh.Reload()) continue;
      const gdlog::Status st = RunWithCancel(sh.engine.get());
      if (!st.ok() && !sh.engine->has_run()) {
        std::printf("error: %s\n", st.ToString().c_str());
        continue;
      }
      if (!st.ok()) PrintTermination(*sh.engine);
      const gdlog::FixpointStats* s = sh.engine->stats();
      std::printf("%s: %llu tuples inserted, %llu gamma firings\n",
                  st.ok() ? "ok" : "stopped",
                  static_cast<unsigned long long>(s->exec.inserts),
                  static_cast<unsigned long long>(s->gamma_firings));
      if (sh.options.obs.enabled && !sh.options.obs.trace_path.empty()) {
        std::printf("trace written to %s\n",
                    sh.options.obs.trace_path.c_str());
      }
    } else if (cmd == ".query") {
      Query q;
      if (!ParseQuerySpec(arg1, &q)) {
        std::printf("usage: .query pred/arity\n");
        continue;
      }
      if (!sh.engine) {
        std::printf("error: no program loaded\n");
        continue;
      }
      PrintRelation(*sh.engine, q.pred, q.arity);
    } else if (cmd == ".lint") {
      if (sh.program_text.empty()) {
        std::printf("error: no program loaded (.load PATH first)\n");
        continue;
      }
      RunLint(sh.program_path, sh.program_text, {}, sh.options,
              /*json=*/arg1 == "json");
    } else if (cmd == ".types") {
      if (!sh.engine) {
        std::printf("error: no program loaded (.load PATH first)\n");
        continue;
      }
      auto r = sh.engine->TypeSignaturesText();
      if (r.ok()) {
        std::printf("%s", r->c_str());
      } else {
        std::printf("error: %s\n", r.status().ToString().c_str());
      }
    } else if (cmd == ".stats") {
      if (sh.engine) {
        PrintStats(*sh.engine);
      } else {
        std::printf("%% no run yet\n");
      }
    } else if (cmd == ".explain") {
      if (!sh.engine) {
        std::printf("error: no program loaded\n");
        continue;
      }
      auto r = sh.engine->ExplainAnalyzeText();
      if (r.ok()) {
        std::printf("%s", r->c_str());
      } else {
        std::printf("error: %s\n", r.status().ToString().c_str());
      }
    } else if (cmd == ".provenance") {
      if (arg1 == "on") {
        sh.options.provenance = true;
        std::printf("provenance on (takes effect on the next .run)\n");
      } else if (arg1 == "off") {
        sh.options.provenance = false;
        std::printf("provenance off\n");
      } else {
        std::printf("usage: .provenance on | .provenance off\n");
        continue;
      }
      if (!sh.program_text.empty()) sh.Reload();
    } else if (cmd == ".why") {
      if (!sh.engine) {
        std::printf("error: no program loaded\n");
        continue;
      }
      // Optional leading format token, then the target; tuple text may
      // have been split on spaces, so glue the remaining tokens back.
      std::string format = "text";
      std::string target;
      if (arg1 == "text" || arg1 == "json" || arg1 == "dot") {
        format = arg1;
        target = arg2;
      } else {
        target = arg1 + arg2;
      }
      std::string tok;
      while (iss >> tok) target += tok;
      if (target.empty()) {
        std::printf("usage: .why [text|json|dot] pred(args) | pred/arity\n");
        continue;
      }
      auto r = format == "json"  ? sh.engine->WhyJson(target)
               : format == "dot" ? sh.engine->WhyDot(target)
                                 : sh.engine->WhyText(target);
      if (r.ok()) {
        std::printf("%s", r->c_str());
        if (!r->empty() && r->back() != '\n') std::printf("\n");
      } else {
        std::printf("error: %s\n", r.status().ToString().c_str());
      }
    } else if (cmd == ".choices") {
      if (!sh.engine) {
        std::printf("error: no program loaded\n");
        continue;
      }
      auto r = sh.engine->ChoiceAuditText();
      if (r.ok()) {
        std::printf("%s", r->c_str());
      } else {
        std::printf("error: %s\n", r.status().ToString().c_str());
      }
    } else if (cmd == ".blackbox") {
      if (!sh.engine) {
        std::printf("error: no program loaded\n");
        continue;
      }
      std::printf("%s", sh.engine->DumpFlightRecorder().c_str());
    } else if (cmd == ".metrics") {
      if (!sh.engine) {
        std::printf("error: no program loaded\n");
        continue;
      }
      if (arg1.empty()) {
        auto r = sh.engine->MetricsText();
        if (r.ok()) {
          std::printf("%s", r->c_str());
        } else {
          std::printf("error: %s\n", r.status().ToString().c_str());
        }
      } else {
        const gdlog::Status st = sh.engine->WriteMetricsText(arg1);
        if (st.ok()) {
          std::printf("metrics written to %s\n", arg1.c_str());
        } else {
          std::printf("error: %s\n", st.ToString().c_str());
        }
      }
    } else if (cmd == ".json") {
      if (!sh.engine) {
        std::printf("error: no program loaded\n");
        continue;
      }
      auto r = sh.engine->RunReport();
      if (r.ok()) {
        std::printf("%s\n", r->c_str());
      } else {
        std::printf("error: %s\n", r.status().ToString().c_str());
      }
    } else if (cmd == ".report") {
      if (!sh.engine) {
        std::printf("error: no program loaded\n");
        continue;
      }
      auto r = sh.engine->AnalysisReport();
      if (r.ok()) std::printf("%s\n", r->c_str());
    } else if (cmd == ".rewrite") {
      if (!sh.engine) {
        std::printf("error: no program loaded\n");
        continue;
      }
      auto r = sh.engine->RewrittenProgramText();
      if (r.ok()) std::printf("%s\n", r->c_str());
    } else if (cmd == ".verify") {
      if (!sh.engine) {
        std::printf("error: no program loaded\n");
        continue;
      }
      auto check = sh.engine->VerifyStableModel();
      if (!check.ok()) {
        std::printf("error: %s\n", check.status().ToString().c_str());
        continue;
      }
      std::printf("stable model: %s (%zu facts)\n",
                  check->stable ? "yes" : "NO", check->model_facts);
    } else {
      std::printf("unknown command %s (.help for help)\n", cmd.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage(argv[0]);
    return 2;
  }
  const char* path = nullptr;
  std::vector<Query> queries;
  bool report = false, rewrite = false, verify = false, stats = false;
  bool json_report = false, interactive = false;
  bool lint = false, lint_json = false, explain_analyze = false;
  bool choices = false;
  std::vector<std::string> why_targets, why_dot_targets;
  std::string metrics_out;
  bool progress_ticker = false;
  uint64_t serve_linger_ms = 0;
  gdlog::EngineOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--query" && i + 1 < argc) {
      Query q;
      if (!ParseQuerySpec(argv[++i], &q)) {
        std::fprintf(stderr, "bad --query %s (want pred/arity)\n", argv[i]);
        return 2;
      }
      queries.push_back(q);
    } else if (arg == "--seed" && i + 1 < argc) {
      if (!ParseFlagUint(arg, argv[++i], &options.eval.choice_seed)) return 2;
    } else if (arg == "--trace" && i + 1 < argc) {
      options.obs.enabled = true;
      options.obs.trace_path = argv[++i];
    } else if (arg == "--lint") {
      lint = true;
    } else if (arg == "--lint-json") {
      lint = true;
      lint_json = true;
    } else if (arg == "--report") {
      report = true;
    } else if (arg == "--rewrite") {
      rewrite = true;
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--provenance") {
      options.provenance = true;
    } else if (arg == "--why" && i + 1 < argc) {
      why_targets.push_back(argv[++i]);
      options.provenance = true;
    } else if (arg == "--why-dot" && i + 1 < argc) {
      why_dot_targets.push_back(argv[++i]);
      options.provenance = true;
    } else if (arg == "--choices") {
      choices = true;
      options.provenance = true;
    } else if (arg == "--explain-analyze") {
      explain_analyze = true;
    } else if (arg == "--json-report") {
      json_report = true;
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg == "--serve-obs" && i + 1 < argc) {
      uint64_t port = 0;
      if (!ParseFlagUint(arg, argv[++i], &port, UINT16_MAX)) return 2;
      options.obs_http.enabled = true;
      options.obs_http.port = static_cast<uint16_t>(port);
    } else if (arg == "--serve-linger-ms" && i + 1 < argc) {
      if (!ParseFlagUint(arg, argv[++i], &serve_linger_ms)) return 2;
    } else if (arg == "--progress") {
      progress_ticker = true;
    } else if (arg == "--interactive" || arg == "-i") {
      interactive = true;
    } else if (arg == "--no-merge") {
      options.eval.use_merge_congruence = false;
    } else if (arg == "--linear-least") {
      options.eval.use_priority_queue = false;
    } else if (arg == "--no-planner") {
      options.eval.use_join_planner = false;
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      if (!ParseFlagUint(arg, argv[++i], &options.limits.deadline_ms)) return 2;
    } else if (arg == "--max-tuples" && i + 1 < argc) {
      if (!ParseFlagUint(arg, argv[++i], &options.limits.max_tuples)) return 2;
    } else if (arg == "--max-stages" && i + 1 < argc) {
      if (!ParseFlagUint(arg, argv[++i], &options.limits.max_stages)) return 2;
    } else if (arg == "--max-memory-mb" && i + 1 < argc) {
      // Bounded so the byte count cannot wrap.
      uint64_t mb = 0;
      if (!ParseFlagUint(arg, argv[++i], &mb, UINT64_MAX >> 20)) return 2;
      options.limits.max_memory_bytes = mb << 20;
    } else if (arg == "--faults" && i + 1 < argc) {
      options.faults = argv[++i];
    } else if (arg == "--db-dir" && i + 1 < argc) {
      options.durability.dir = argv[++i];
    } else if (arg == "--fsync" && i + 1 < argc) {
      options.durability.fsync = argv[++i];
    } else if (arg == "--checkpoint-every" && i + 1 < argc) {
      if (!ParseFlagUint(arg, argv[++i],
                         &options.durability.checkpoint_every)) {
        return 2;
      }
    } else if (arg[0] == '-') {
      Usage(argv[0]);
      return 2;
    } else {
      path = argv[i];
    }
  }
  if (interactive) return RunInteractive(std::move(options));
  if (!path) {
    Usage(argv[0]);
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();

  if (lint) return RunLint(path, text.str(), queries, options, lint_json);

  gdlog::Engine engine(options);
  if (options.obs_http.enabled) {
    if (!engine.obs_http_status().ok()) {
      std::fprintf(stderr, "serve-obs failed: %s\n",
                   engine.obs_http_status().ToString().c_str());
      return 1;
    }
    // Announced before the run so scripts waiting on the endpoint can
    // resolve an ephemeral port and scrape mid-run.
    AnnounceObsEndpoint(engine);
  }
  gdlog::Status st = engine.LoadProgram(text.str());
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", path, st.ToString().c_str());
    return 1;
  }
  if (engine.durable() != nullptr && engine.durable()->recovery().opened_existing) {
    const gdlog::DurableStore::RecoveryInfo& rec = engine.durable()->recovery();
    std::fprintf(stderr,
                 "%% recovered %s: snapshot seq %llu (%llu facts), %llu WAL "
                 "record(s) replayed%s\n",
                 options.durability.dir.c_str(),
                 static_cast<unsigned long long>(rec.snapshot_seq),
                 static_cast<unsigned long long>(rec.snapshot_facts),
                 static_cast<unsigned long long>(rec.wal_records_replayed),
                 rec.wal_tail_dropped ? " (torn tail dropped)" : "");
  }
  if (report) {
    auto r = engine.AnalysisReport();
    if (r.ok()) std::printf("%s\n", r->c_str());
  }
  if (rewrite) {
    auto r = engine.RewrittenProgramText();
    if (r.ok()) std::printf("%% first-order rewriting:\n%s\n", r->c_str());
  }
  InstallSigintHandler();
  {
    std::unique_ptr<ProgressTicker> ticker;
    if (progress_ticker) ticker = std::make_unique<ProgressTicker>(&engine);
    st = RunWithCancel(&engine);
  }
  bool bounded_stop = false;
  if (!st.ok()) {
    if (engine.has_run()) {
      // A guardrail ended the run; the partial state is queryable, so
      // fall through and print whatever was asked for.
      PrintTermination(engine);
      bounded_stop = true;
    } else {
      std::fprintf(stderr, "evaluation failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  if (queries.empty()) {
    // Default: every predicate that appears in a rule head.
    std::set<std::pair<std::string, uint32_t>> heads;
    for (const gdlog::Rule& r : engine.program()->rules) {
      if (!r.is_fact()) {
        heads.insert({r.head.predicate,
                      static_cast<uint32_t>(r.head.args.size())});
      }
    }
    for (const auto& [pred, arity] : heads) {
      PrintRelation(engine, pred, arity);
    }
  } else {
    for (const Query& q : queries) PrintRelation(engine, q.pred, q.arity);
  }

  if (stats) PrintStats(engine);
  for (const std::string& target : why_targets) {
    auto r = engine.WhyText(target);
    if (r.ok()) {
      std::printf("%% why %s:\n%s", target.c_str(), r->c_str());
    } else {
      std::fprintf(stderr, "why error (%s): %s\n", target.c_str(),
                   r.status().ToString().c_str());
      return 1;
    }
  }
  for (const std::string& target : why_dot_targets) {
    auto r = engine.WhyDot(target);
    if (r.ok()) {
      std::printf("%s", r->c_str());
    } else {
      std::fprintf(stderr, "why error (%s): %s\n", target.c_str(),
                   r.status().ToString().c_str());
      return 1;
    }
  }
  if (choices) {
    auto r = engine.ChoiceAuditText();
    if (r.ok()) {
      std::printf("%% choice audit:\n%s", r->c_str());
    } else {
      std::fprintf(stderr, "choices error: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
  }
  if (explain_analyze) {
    auto r = engine.ExplainAnalyzeText();
    if (r.ok()) {
      std::printf("%s", r->c_str());
    } else {
      std::fprintf(stderr, "explain-analyze error: %s\n",
                   r.status().ToString().c_str());
    }
  }
  if (json_report) {
    auto r = engine.RunReport();
    if (r.ok()) std::printf("%s\n", r->c_str());
  }
  if (!metrics_out.empty()) {
    const gdlog::Status mst = engine.WriteMetricsText(metrics_out);
    if (!mst.ok()) {
      std::fprintf(stderr, "metrics error: %s\n", mst.ToString().c_str());
      return 1;
    }
  }
  if (verify) {
    if (bounded_stop) {
      std::fprintf(stderr,
                   "%% --verify skipped: run was truncated, the partial "
                   "state is not a fixpoint\n");
    } else {
      auto check = engine.VerifyStableModel();
      if (!check.ok()) {
        std::fprintf(stderr, "verification error: %s\n",
                     check.status().ToString().c_str());
        return 1;
      }
      std::printf("%% stable model: %s (%zu facts)\n",
                  check->stable ? "yes" : "NO", check->model_facts);
      if (!check->stable) {
        std::printf("%%   %s\n", check->diagnostic.c_str());
        return 1;
      }
    }
  }
  if (serve_linger_ms > 0 && engine.obs_server() != nullptr) {
    // Keep the endpoint up after the run so scrapers can collect the
    // end-of-run artifacts (/runs/last, /trace). SIGINT ends the linger.
    std::fprintf(stderr, "%% obs endpoint lingering %llu ms\n",
                 static_cast<unsigned long long>(serve_linger_ms));
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(serve_linger_ms);
    while (std::chrono::steady_clock::now() < until &&
           g_sigint_count.load(std::memory_order_relaxed) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return bounded_stop ? kExitBoundedStop : 0;
}
