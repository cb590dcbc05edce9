// libFuzzer harness for the whole pipeline: lexer, parser, the static
// analyses behind them, and a bounded evaluation with naive evaluation
// as its model oracle.
//
// The contract under test: arbitrary bytes fed to ParseProgram either
// produce a Program or a ParseError Status — never a crash, hang, or
// sanitizer report. Programs that parse are additionally pushed through
// stage analysis, lint, and the full abstract-interpretation pipeline
// (type/interval/cardinality fixpoint, choice-determinism closure, JSON
// and text renderers), which must also fail only via Status /
// Diagnostic. Programs that load are evaluated under deterministic caps
// and stay queryable whether the run completes or stops.
//
// The model oracle: a program with no meta literal (choice, least, most,
// next) has a unique model. When its run completes, a rerun with
// use_seminaive = false, which re-reads full relations every round and
// never touches a delta window, must derive the same facts. Any
// difference aborts, so libFuzzer keeps the input as a crash.
//
// Build:  cmake -B build -DCMAKE_CXX_COMPILER=clang++ -DGDLOG_FUZZ=ON
//               -DGDLOG_SANITIZE=ON && cmake --build build
// Run:    build/fuzz/fuzz_parser fuzz/corpus  (see fuzz/CMakeLists.txt
//         for the seed-corpus target)
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/absint/absint.h"
#include "analysis/lint.h"
#include "api/engine.h"
#include "obs/json.h"
#include "parser/parser.h"
#include "value/value.h"

namespace {

struct RunResult {
  bool loaded = false;
  bool has_meta = false;  // some rule body has a meta literal
  gdlog::TerminationReason reason = gdlog::TerminationReason::kCompleted;
  std::vector<std::string> model;  // every predicate's rows, sorted
};

bool HasMetaLiteral(const gdlog::Program& program) {
  for (const gdlog::Rule& rule : program.rules) {
    for (const gdlog::Literal& lit : rule.body) {
      if (lit.is_meta()) return true;
    }
  }
  return false;
}

RunResult RunOnce(std::string_view text, bool seminaive) {
  gdlog::EngineOptions options;
  options.eval.use_seminaive = seminaive;
  // Deterministic caps: an input stops at the same point on every run.
  options.limits.max_tuples = 2000;
  options.limits.max_stages = 64;
  options.limits.max_iterations = 64;
  // Backstops against hangs and blowups; where they trip is not
  // reproducible run to run.
  options.limits.deadline_ms = 100;
  options.limits.max_memory_bytes = 64ull << 20;

  RunResult r;
  gdlog::Engine engine(options);
  if (!engine.LoadProgram(text).ok()) return r;
  r.loaded = true;
  r.has_meta = HasMetaLiteral(*engine.program());
  (void)engine.Run();
  r.reason = engine.outcome().reason;
  // Completed or stopped, every predicate must still answer a query.
  for (const auto& ref : engine.program()->AllPredicates()) {
    for (const auto& tuple : engine.Query(ref.name, ref.arity)) {
      std::string line = ref.name;
      for (const gdlog::Value& v : tuple) {
        line += ' ';
        line += engine.store().ToString(v);
      }
      r.model.push_back(std::move(line));
    }
  }
  std::sort(r.model.begin(), r.model.end());
  return r;
}

bool Backstop(gdlog::TerminationReason r) {
  switch (r) {
    case gdlog::TerminationReason::kDeadline:
    case gdlog::TerminationReason::kMemoryLimit:
    case gdlog::TerminationReason::kCancelled:
    case gdlog::TerminationReason::kOom:
    case gdlog::TerminationReason::kFault:
      return true;
    default:
      return false;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);

  // Lint first: it exercises parse + analysis and must never abort.
  {
    gdlog::ValueStore store;
    (void)gdlog::LintSource(&store, text, {});
  }

  // The abstract interpreter on anything that parses: the fixpoint,
  // every diagnostic path, and both renderers must be total.
  {
    gdlog::ValueStore store;
    auto parsed = gdlog::ParseProgram(&store, text);
    if (parsed.ok()) {
      const gdlog::absint::AnalysisResult r = gdlog::absint::Analyze(*parsed);
      gdlog::JsonWriter w;
      gdlog::absint::AnalysisToJson(r, &w);
      (void)w.Take();
      (void)gdlog::absint::SignaturesText(r);
    }
  }

  const RunResult run = RunOnce(text, /*seminaive=*/true);
  if (!run.loaded || run.has_meta ||
      run.reason != gdlog::TerminationReason::kCompleted) {
    return 0;
  }
  const RunResult naive = RunOnce(text, /*seminaive=*/false);
  if (Backstop(naive.reason)) return 0;
  if (naive.reason != gdlog::TerminationReason::kCompleted ||
      naive.model != run.model) {
    std::fprintf(stderr,
                 "seminaive and naive models differ\n"
                 "  seminaive: completed, %zu rows\n"
                 "  naive:     %s, %zu rows\n",
                 run.model.size(),
                 std::string(gdlog::TerminationReasonName(naive.reason))
                     .c_str(),
                 naive.model.size());
    std::vector<std::string> only_run, only_naive;
    std::set_difference(run.model.begin(), run.model.end(),
                        naive.model.begin(), naive.model.end(),
                        std::back_inserter(only_run));
    std::set_difference(naive.model.begin(), naive.model.end(),
                        run.model.begin(), run.model.end(),
                        std::back_inserter(only_naive));
    if (!only_run.empty()) {
      std::fprintf(stderr, "  seminaive only: %s (%zu rows)\n",
                   only_run[0].c_str(), only_run.size());
    }
    if (!only_naive.empty()) {
      std::fprintf(stderr, "  naive only:     %s (%zu rows)\n",
                   only_naive[0].c_str(), only_naive.size());
    }
    std::abort();
  }
  return 0;
}
