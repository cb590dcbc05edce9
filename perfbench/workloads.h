// Workloads of the whole-pipeline benchmark.
//
// A Workload holds one seed's generated inputs and everything needed to
// drive them through the public Engine API: the program text, the facts
// added through AddFact, the predicate queried, an oracle that judges
// the answer without sharing the engine's hot path, the procedural
// baseline, and the rows the storage and queue replay probes reuse.
// README.md in this directory says why each workload exists.
#ifndef GDLOG_PERFBENCH_WORKLOADS_H_
#define GDLOG_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "eval/rql.h"
#include "report.h"

namespace perfbench {

using gdlog::Value;
using Rows = std::vector<std::vector<Value>>;

/// A relation the replay probes take rows from, by predicate/arity.
struct RelationRef {
  std::string pred;
  uint32_t arity = 0;
};

/// What the storage and queue replay probes reuse from a pass.
struct ReplaySpec {
  RelationRef insert_rows;            // Relation::Insert miss/hit replay
  RelationRef probe_target;           // relation indexed for probing
  std::vector<uint32_t> probe_columns;
  RelationRef probe_keys;             // rows supplying the probe keys
  std::vector<uint32_t> key_columns;  // in probe_columns order
  RelationRef candidates;             // rows replayed through the queue
  gdlog::CandidateQueue::Order order = gdlog::CandidateQueue::Order::kFifo;
  int cost_column = -1;               // -1: FIFO (cost = sequence number)
  bool merge = false;                 // congruence merge on merge_columns
  std::vector<uint32_t> merge_columns;
};

struct Workload {
  std::string name;
  std::string program;  // passed to Engine::LoadProgram
  /// Adds the API-side facts (the timed AddFact loop); may be empty.
  std::function<gdlog::Status(gdlog::Engine*)> add_facts;
  uint64_t api_facts = 0;     // facts add_facts adds
  uint64_t inline_facts = 0;  // ground facts inside `program`
  RelationRef query;
  /// Empty when `rows` is the right answer, else what is wrong.
  std::function<std::string(const Rows& rows)> check;
  /// The procedural algorithm on the same input; returns a checksum
  /// that `baseline_expected` must equal.
  std::function<int64_t()> baseline;
  int64_t baseline_expected = 0;
  /// Relations whose footprint feeds storage.bytes_per_tuple.
  std::vector<RelationRef> relations;
  ReplaySpec replay;
};

enum class Scale { kFull, kSmall };

/// Generates `name`'s inputs from `seed`; nullopt for an unknown name.
/// kSmall is a scaled-down instance for the stable-model check.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     Scale scale = Scale::kFull);

/// Wall-clock seconds of each benchmark call into the engine.
struct PassTimes {
  double construct = 0, load = 0, facts = 0, run = 0, query = 0,
         teardown = 0;
  double setup() const { return construct + load + facts; }
  double solve() const { return run + query; }
  double total() const { return setup() + solve() + teardown; }
};

/// Counters the engine exposes, read after Query and before teardown.
struct PassLayers {
  gdlog::EnginePhaseTimes phases;
  gdlog::FixpointStats stats;
  uint64_t fd_admissible = 0, fd_inadmissible = 0;
  uint64_t inserts = 0, dedup_hits = 0;  // summed over rule profiles
  uint64_t index_probes = 0, index_rows = 0;  // EXPLAIN ANALYZE actuals
  uint64_t tracked_peak_bytes = 0;
  uint64_t parsed_facts = 0;  // ground facts in the loaded program
  uint64_t relation_bytes = 0, relation_rows = 0;
};

/// Count-type metrics that must repeat exactly for a fixed seed.
std::vector<std::pair<std::string, uint64_t>> CountsOf(const PassLayers& l);

/// Flat copies of the relations ReplaySpec names, taken from a pass.
struct ReplayRows {
  std::vector<Value> insert_rows, probe_target, probe_keys, candidates;
};

struct PassResult {
  gdlog::Status status;
  std::string wrong;  // oracle verdict; empty when the answer is right
  bool ok() const { return status.ok() && wrong.empty(); }
  PassTimes times;
  PassLayers layers;
};

struct PassOptions {
  bool traced = false;       // obs.enabled: the engine's own tracer
  SpanLog* spans = nullptr;  // benchmark spans around each call
  std::string engine_trace_path;  // when set, Engine::WriteTrace here
  ReplayRows* replay = nullptr;   // when set, filled from the pass
};

/// One closed-loop pass: construction, LoadProgram, AddFact loop, Run,
/// Query, destruction. Only those calls are timed: counters are read
/// between Query and destruction, and the oracle judges the answer after
/// destruction.
PassResult RunPass(const Workload& w, const PassOptions& options);

/// Set-up alone (construction, LoadProgram, AddFact loop) followed by
/// an untimed teardown; returns the set-up seconds, or a negative value
/// when a call fails.
double RunSetupOnly(const Workload& w);

/// Theorem 1 on the scaled-down instance: empty when the computed model
/// is stable (or the workload has no choice), else the diagnostic.
std::string CheckStableModelSmall(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // GDLOG_PERFBENCH_WORKLOADS_H_
