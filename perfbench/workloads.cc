#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "baselines/matching.h"
#include "baselines/prim.h"
#include "common/rng.h"
#include "greedy/graph.h"
#include "greedy/matching.h"
#include "greedy/prim.h"
#include "workload/graph_gen.h"

namespace perfbench {
namespace {

using gdlog::Engine;
using gdlog::Graph;
using gdlog::Status;

constexpr uint32_t kPrimRoot = 0;

// Example 4 with the graph inline: the rules, the root seed, and both
// directions of every edge except those into the root (the root enters
// through its seed, as in gdlog::PrimMst).
std::string PrimProgramText(const Graph& g, uint64_t* facts) {
  std::string text = gdlog::kPrimProgramRules;
  text += "prm(nil, " + std::to_string(kPrimRoot) + ", 0, 0).\n";
  *facts = 1;
  char line[96];
  auto add = [&](uint32_t u, uint32_t v, int64_t w) {
    if (v == kPrimRoot) return;
    std::snprintf(line, sizeof(line), "g(%u, %u, %" PRId64 ").\n", u, v, w);
    text += line;
    ++*facts;
  };
  for (const gdlog::GraphEdge& e : g.edges) {
    add(e.u, e.v, e.w);
    add(e.v, e.u, e.w);
  }
  return text;
}

bool IntIn(const Value& v, int64_t lo, int64_t hi) {
  return v.is_int() && v.AsInt() >= lo && v.AsInt() < hi;
}

// One root seed, one parent per non-root node, and the weight of the
// unique MST (weights are distinct) as BaselinePrim computes it.
std::string CheckPrim(const Rows& rows, uint32_t n, int64_t mst_weight) {
  std::vector<bool> seen(n, false);
  int64_t total = 0;
  size_t roots = 0, tree = 0;
  for (const auto& r : rows) {
    if (r.size() != 4 || !IntIn(r[1], 0, n) || !r[2].is_int()) {
      return "malformed prm row";
    }
    if (r[0].is_nil()) {
      ++roots;
      if (r[1].AsInt() != kPrimRoot) return "seed is not the root";
      continue;
    }
    const auto node = static_cast<size_t>(r[1].AsInt());
    if (seen[node] || node == kPrimRoot) return "node entered twice";
    seen[node] = true;
    total += r[2].AsInt();
    ++tree;
  }
  if (roots != 1) return "expected one root seed";
  if (tree != n - 1) {
    return "tree has " + std::to_string(tree) + " edges, want " +
           std::to_string(n - 1);
  }
  if (total != mst_weight) {
    return "tree weight " + std::to_string(total) + ", baseline " +
           std::to_string(mst_weight);
  }
  return "";
}

// Same total and arc count as BaselineGreedyMatching, and each source
// and each target used at most once (the two choice FDs).
std::string CheckMatching(const Rows& rows, uint32_t nodes,
                          const gdlog::BaselineMatching& want) {
  std::vector<bool> src(nodes, false), dst(nodes, false);
  int64_t total = 0;
  size_t arcs = 0;
  for (const auto& r : rows) {
    if (r.size() != 4) return "malformed matching row";
    if (r[0].is_nil()) continue;  // stage-0 seed
    if (!IntIn(r[0], 0, nodes) || !IntIn(r[1], 0, nodes) || !r[2].is_int()) {
      return "malformed matching row";
    }
    const auto s = static_cast<size_t>(r[0].AsInt());
    const auto t = static_cast<size_t>(r[1].AsInt());
    if (src[s] || dst[t]) return "node matched twice";
    src[s] = dst[t] = true;
    total += r[2].AsInt();
    ++arcs;
  }
  if (arcs != want.arcs.size() || total != want.total_cost) {
    return "matching " + std::to_string(arcs) + " arcs / " +
           std::to_string(total) + ", baseline " +
           std::to_string(want.arcs.size()) + " / " +
           std::to_string(want.total_cost);
  }
  return "";
}

// The closure of a chain with skip edges is every pair i < j: check
// each row is such a pair, none repeats, and all n(n-1)/2 are there.
std::string CheckClosure(const Rows& rows, uint32_t n) {
  std::vector<bool> seen(static_cast<size_t>(n) * n, false);
  for (const auto& r : rows) {
    if (r.size() != 2 || !IntIn(r[0], 0, n) || !IntIn(r[1], 0, n)) {
      return "malformed tc row";
    }
    const int64_t x = r[0].AsInt(), y = r[1].AsInt();
    if (x >= y) return "tc holds a pair that is not i < j";
    const size_t bit = static_cast<size_t>(x) * n + static_cast<size_t>(y);
    if (seen[bit]) return "tc pair repeated";
    seen[bit] = true;
  }
  const uint64_t want = static_cast<uint64_t>(n) * (n - 1) / 2;
  if (rows.size() != want) {
    return "tc has " + std::to_string(rows.size()) + " pairs, want " +
           std::to_string(want);
  }
  return "";
}

// Open-addressing hash set of nonzero keys: linear probing over a
// power-of-two table that doubles when half full.
class FlatKeySet {
 public:
  size_t size() const { return size_; }

  void Insert(uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    if (Place(&slots_, key)) ++size_;
  }

 private:
  // Returns false when `key` is already there.
  static bool Place(std::vector<uint64_t>* slots, uint64_t key) {
    const size_t mask = slots->size() - 1;
    for (size_t i = (key * 0x9E3779B97F4A7C15ull) >> 32 & mask;;
         i = (i + 1) & mask) {
      uint64_t& slot = (*slots)[i];
      if (slot == key) return false;
      if (slot == 0) {
        slot = key;
        return true;
      }
    }
  }

  void Grow() {
    std::vector<uint64_t> bigger(std::max<size_t>(1024, 2 * slots_.size()));
    for (uint64_t key : slots_) {
      if (key != 0) Place(&bigger, key);
    }
    slots_.swap(bigger);
  }

  std::vector<uint64_t> slots_;
  size_t size_ = 0;
};

// Procedural transitive closure: a BFS from every node over a CSR
// adjacency, collecting the (source, reachable) pairs into a hash set,
// the closure materialised as the engine's tc relation holds it. A
// count-only BFS stays in L1 and did not slow down with the engine when
// the host's cache traffic rose; the set gives the baseline a memory
// footprint like the engine's. Returns the number of pairs.
int64_t BfsClosurePairs(uint32_t n,
                        const std::vector<std::pair<int64_t, int64_t>>& edges) {
  std::vector<uint32_t> start(n + 1, 0), adj(edges.size());
  for (const auto& e : edges) ++start[static_cast<size_t>(e.first) + 1];
  for (uint32_t i = 0; i < n; ++i) start[i + 1] += start[i];
  std::vector<uint32_t> fill(start.begin(), start.end() - 1);
  for (const auto& e : edges) {
    adj[fill[static_cast<size_t>(e.first)]++] = static_cast<uint32_t>(e.second);
  }
  std::vector<uint32_t> mark(n, UINT32_MAX), queue(n);
  FlatKeySet closure;
  for (uint32_t s = 0; s < n; ++s) {
    size_t head = 0, tail = 0;
    for (uint32_t k = start[s]; k < start[s + 1]; ++k) {
      if (mark[adj[k]] != s) {
        mark[adj[k]] = s;
        queue[tail++] = adj[k];
      }
    }
    while (head < tail) {
      const uint32_t u = queue[head++];
      for (uint32_t k = start[u]; k < start[u + 1]; ++k) {
        if (mark[adj[k]] != s) {
          mark[adj[k]] = s;
          queue[tail++] = adj[k];
        }
      }
    }
    for (size_t i = 0; i < tail; ++i) {
      closure.Insert((uint64_t{s} << 32 | queue[i]) + 1);  // never 0
    }
  }
  return static_cast<int64_t>(closure.size());
}

Workload MakePrimText(uint64_t seed, Scale scale) {
  const uint32_t n = scale == Scale::kFull ? 16000 : 16;
  gdlog::GraphGenOptions gen;
  gen.seed = seed;
  auto graph = std::make_shared<const Graph>(
      gdlog::ConnectedRandomGraph(n, n, gen));
  Workload w;
  w.name = "prim_text";
  w.program = PrimProgramText(*graph, &w.inline_facts);
  w.query = {"prm", 4};
  w.baseline = [graph] {
    return gdlog::BaselinePrim(*graph, kPrimRoot).total_cost;
  };
  w.baseline_expected = w.baseline();
  w.check = [n, want = w.baseline_expected](const Rows& rows) {
    return CheckPrim(rows, n, want);
  };
  w.relations = {{"g", 3}, {"new_g", 4}, {"prm", 4}};
  ReplaySpec& r = w.replay;
  r.insert_rows = {"new_g", 4};
  // new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C): g probed on X.
  r.probe_target = {"g", 3};
  r.probe_columns = {0};
  r.probe_keys = {"prm", 4};
  r.key_columns = {1};
  // Candidates are new_g rows, least(C), r-congruent on the choice key Y.
  r.candidates = {"new_g", 4};
  r.order = gdlog::CandidateQueue::Order::kMin;
  r.cost_column = 2;
  r.merge = true;
  r.merge_columns = {1};
  return w;
}

Workload MakeMatchApi(uint64_t seed, Scale scale) {
  const bool full = scale == Scale::kFull;
  const uint32_t side = full ? 20000 : 10;
  gdlog::GraphGenOptions gen;
  gen.seed = seed;
  auto graph = std::make_shared<const Graph>(
      gdlog::BipartiteGraph(side, side, full ? 100000 : 40, gen));
  auto want = std::make_shared<const gdlog::BaselineMatching>(
      gdlog::BaselineGreedyMatching(*graph));
  Workload w;
  w.name = "match_api";
  w.program = gdlog::kMatchingProgram;
  w.inline_facts = 1;
  w.api_facts = graph->edges.size();
  w.add_facts = [graph](Engine* e) {
    gdlog::GraphLoadOptions load;
    load.both_directions = false;  // arcs are directed
    return gdlog::LoadGraphEdges(e, *graph, load);
  };
  w.query = {"matching", 4};
  w.baseline = [graph] {
    return gdlog::BaselineGreedyMatching(*graph).total_cost;
  };
  w.baseline_expected = want->total_cost;
  w.check = [want, nodes = graph->num_nodes](const Rows& rows) {
    return CheckMatching(rows, nodes, *want);
  };
  w.relations = {{"g", 3}, {"matching", 4}};
  ReplaySpec& r = w.replay;
  r.insert_rows = {"g", 3};
  // No join in Example 7; probe g by source, the shape of the
  // source-side FD lookup.
  r.probe_target = {"g", 3};
  r.probe_columns = {0};
  r.probe_keys = {"g", 3};
  r.key_columns = {0};
  // Every arc is a candidate, least(C), no congruence merge.
  r.candidates = {"g", 3};
  r.order = gdlog::CandidateQueue::Order::kMin;
  r.cost_column = 2;
  return w;
}

Workload MakeTcSkip(uint64_t seed, Scale scale) {
  // n = 600 keeps the pass's working set near 20 MiB: at n = 2000
  // (175 MiB) pass times doubled whenever the host's memory traffic rose,
  // which the cache-resident baseline did not follow.
  const uint32_t n = scale == Scale::kFull ? 600 : 40;
  auto edges = std::make_shared<std::vector<std::pair<int64_t, int64_t>>>();
  for (uint32_t i = 0; i + 1 < n; ++i) edges->push_back({i, i + 1});
  for (uint32_t i = 0; i + 2 < n; ++i) edges->push_back({i, i + 2});
  gdlog::Rng rng(seed);
  rng.Shuffle(edges.get());
  Workload w;
  w.name = "tc_skip";
  w.program =
      "tc(X, Y) <- edge(X, Y).\n"
      "tc(X, Z) <- tc(X, Y), edge(Y, Z).\n";
  w.api_facts = edges->size();
  w.add_facts = [edges](Engine* e) {
    for (const auto& [a, b] : *edges) {
      GDLOG_RETURN_IF_ERROR(e->AddFact("edge", {Value::Int(a), Value::Int(b)}));
    }
    return Status::OK();
  };
  w.query = {"tc", 2};
  w.baseline = [n, edges] { return BfsClosurePairs(n, *edges); };
  w.baseline_expected = static_cast<int64_t>(n) * (n - 1) / 2;
  w.check = [n](const Rows& rows) { return CheckClosure(rows, n); };
  w.relations = {{"edge", 2}, {"tc", 2}};
  ReplaySpec& r = w.replay;
  r.insert_rows = {"tc", 2};
  // tc(X, Z) <- tc(X, Y), edge(Y, Z): edge probed on Y.
  r.probe_target = {"edge", 2};
  r.probe_columns = {0};
  r.probe_keys = {"tc", 2};
  r.key_columns = {1};
  // No choice rule: the edges go through a FIFO queue, so the isolated
  // queue cost is still measured on this workload's rows.
  r.candidates = {"edge", 2};
  return w;
}

void CopyRows(const Engine& e, const RelationRef& ref,
              std::vector<Value>* out) {
  out->clear();
  const gdlog::Relation* rel = e.Find(ref.pred, ref.arity);
  if (rel == nullptr) return;
  out->reserve(rel->size() * ref.arity);
  for (gdlog::RowId row = 0; row < rel->size(); ++row) {
    const gdlog::TupleView t = rel->Row(row);
    out->insert(out->end(), t.begin(), t.end());
  }
}

PassLayers ReadLayers(const Engine& e, const Workload& w) {
  PassLayers l;
  l.phases = e.phase_times();
  if (const gdlog::FixpointStats* s = e.stats()) l.stats = *s;
  if (const gdlog::MetricsRegistry* m = e.metrics()) {
    if (const auto* c = m->FindCounter("choice.admissible")) {
      l.fd_admissible = c->value();
    }
    if (const auto* c = m->FindCounter("choice.inadmissible")) {
      l.fd_inadmissible = c->value();
    }
  }
  if (const auto* profiles = e.RuleProfiles()) {
    for (const gdlog::RuleProfile& p : *profiles) {
      l.inserts += p.tuples;
      l.dedup_hits += p.dedup_hits;
    }
  }
  if (auto text = e.ExplainAnalyzeText(); text.ok()) {
    const char* p = text->c_str();
    while ((p = std::strstr(p, " probes=")) != nullptr) {
      unsigned long long probes = 0, rows = 0;
      if (std::sscanf(p, " probes=%llu rows=%llu", &probes, &rows) == 2) {
        l.index_probes += probes;
        l.index_rows += rows;
      }
      ++p;
    }
  }
  l.tracked_peak_bytes = e.outcome().peak_memory_bytes;
  if (const gdlog::Program* prog = e.program()) {
    for (const gdlog::Rule& r : prog->rules) l.parsed_facts += r.is_fact();
  }
  for (const RelationRef& ref : w.relations) {
    if (const gdlog::Relation* rel = e.Find(ref.pred, ref.arity)) {
      l.relation_bytes += rel->ApproxBytes();
      l.relation_rows += rel->size();
    }
  }
  return l;
}

}  // namespace

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     Scale scale) {
  if (name == "prim_text") return MakePrimText(seed, scale);
  if (name == "match_api") return MakeMatchApi(seed, scale);
  if (name == "tc_skip") return MakeTcSkip(seed, scale);
  return std::nullopt;
}

std::vector<std::pair<std::string, uint64_t>> CountsOf(const PassLayers& l) {
  const gdlog::FixpointStats& s = l.stats;
  return {
      {"eval.rounds", s.saturation_rounds},
      {"eval.firings", s.gamma_firings},
      {"exec.solutions", s.exec.solutions},
      {"exec.scan_rows", s.exec.scan_rows},
      {"index.probes", l.index_probes},
      {"index.rows", l.index_rows},
      {"storage.inserts", l.inserts},
      {"storage.dedup_hits", l.dedup_hits},
      {"queue.inserted", s.queues.inserted},
      {"queue.merged", s.queues.merged},
      {"queue.redundant", s.queues.redundant},
      {"queue.fired", s.queues.fired},
      {"queue.max", s.queues.max_queue},
      {"choice.fd_checks", l.fd_admissible + l.fd_inadmissible},
      {"choice.fd_rejects", l.fd_inadmissible},
  };
}

PassResult RunPass(const Workload& w, const PassOptions& o) {
  PassResult r;
  SpanLog* log = o.spans;
  gdlog::EngineOptions options;
  options.obs.enabled = o.traced;
  std::unique_ptr<Engine> engine;
  Rows rows;
  const int pass = log != nullptr ? log->Begin("pass", NowNs()) : -1;
  r.times.construct = Timed(log, "construct", [&] {
    engine = std::make_unique<Engine>(options);
  });
  r.times.load = Timed(log, "load_program", [&] {
    r.status = engine->LoadProgram(w.program);
  });
  if (r.status.ok() && w.add_facts) {
    r.times.facts = Timed(log, "add_facts", [&] {
      r.status = w.add_facts(engine.get());
    });
  }
  if (r.status.ok()) {
    r.times.run = Timed(log, "run", [&] { r.status = engine->Run(); });
  }
  if (r.status.ok()) {
    r.times.query = Timed(log, "query", [&] {
      rows = engine->Query(w.query.pred, w.query.arity);
    });
    Timed(log, "inspect", [&] {
      r.layers = ReadLayers(*engine, w);
      if (!o.engine_trace_path.empty()) {
        const Status st = engine->WriteTrace(o.engine_trace_path);
        if (!st.ok()) {
          std::fprintf(stderr, "engine trace not written: %s\n",
                       st.ToString().c_str());
        }
      }
      if (o.replay != nullptr) {
        const ReplaySpec& s = w.replay;
        CopyRows(*engine, s.insert_rows, &o.replay->insert_rows);
        CopyRows(*engine, s.probe_target, &o.replay->probe_target);
        CopyRows(*engine, s.probe_keys, &o.replay->probe_keys);
        CopyRows(*engine, s.candidates, &o.replay->candidates);
      }
    });
  }
  r.times.teardown = Timed(log, "teardown", [&] { engine.reset(); });
  if (log != nullptr) log->End(pass, NowNs());
  if (r.status.ok()) {
    Timed(log, "oracle", [&] { r.wrong = w.check(rows); });
  }
  return r;
}

double RunSetupOnly(const Workload& w) {
  std::unique_ptr<Engine> engine;
  Status st;
  const double s = Timed(nullptr, "", [&] {
    engine = std::make_unique<Engine>();
    st = engine->LoadProgram(w.program);
    if (st.ok() && w.add_facts) st = w.add_facts(engine.get());
  });
  return st.ok() ? s : -1;
}

std::string CheckStableModelSmall(const std::string& name, uint64_t seed) {
  if (name == "tc_skip") return "";  // Horn: no choice to certify
  std::optional<Workload> w = MakeWorkload(name, seed, Scale::kSmall);
  if (!w) return "unknown workload";
  Engine engine;
  Status st = engine.LoadProgram(w->program);
  if (st.ok() && w->add_facts) st = w->add_facts(&engine);
  if (st.ok()) st = engine.Run();
  if (!st.ok()) return st.ToString();
  if (std::string wrong = w->check(engine.Query(w->query.pred, w->query.arity));
      !wrong.empty()) {
    return wrong;
  }
  auto check = engine.VerifyStableModel();
  if (!check.ok()) return check.status().ToString();
  return check->stable ? "" : "not a stable model: " + check->diagnostic;
}

}  // namespace perfbench
