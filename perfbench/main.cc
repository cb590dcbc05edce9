// gdlog_perfbench: the whole-pipeline benchmark (see README.md).
//
//   gdlog_perfbench --workload prim_text --seed 1 --seconds 10 --trace 0
//
// --trace 0 runs untraced passes back to back and prints the end-to-end
// metrics; --trace 1 alternates traced and untraced passes, replays the
// workload's rows through the storage and queue probes, writes the span
// and engine traces under --out, and prints the per-layer metrics. The
// last stdout line is one JSON object: correct, attempted, failed and
// metrics. Each run makes its inputs from --seed alone.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>

#include "probes.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out = ".bench_out";
};

bool ParseUnsigned(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    uint64_t n = 0;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed" && ParseUnsigned(v, &n)) {
      a->seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUnsigned(v, &n) && n >= 1 &&
               n <= 3600) {
      a->seconds = static_cast<double>(n);
    } else if (flag == "--trace" && ParseUnsigned(v, &n) && n <= 1) {
      a->trace = static_cast<int>(n);
    } else if (flag == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && have_seed &&
         a->seconds > 0 && a->trace >= 0;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string Of(double num, double den) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "= %.6g / %.6g", num, den);
  return buf;
}

std::string Sampled(const std::vector<double>& v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "median of %zu; min %.6g; p90 %.6g",
                v.size(), Quantile(v, 0), Quantile(v, 0.9));
  return buf;
}

double PeakRssMiB() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Pass outcomes and the count-type metrics every pass must repeat.
struct Tally {
  uint64_t attempted = 0, failed = 0;
  std::vector<std::pair<std::string, uint64_t>> counts;  // first good pass
  std::set<std::string> mismatched;

  void Record(const PassResult& r) {
    ++attempted;
    if (!r.ok()) {
      ++failed;
      std::fprintf(stderr, "pass %llu failed: %s\n",
                   static_cast<unsigned long long>(attempted),
                   r.status.ok() ? r.wrong.c_str()
                                 : r.status.ToString().c_str());
      return;
    }
    auto c = CountsOf(r.layers);
    if (counts.empty()) {
      counts = std::move(c);
      return;
    }
    for (size_t i = 0; i < c.size(); ++i) {
      if (c[i].second != counts[i].second) mismatched.insert(c[i].first);
    }
  }
};

bool RunEndToEnd(const Workload& w, const Args& a, Tally* tally,
                 Report* rep) {
  std::vector<double> total, setup, solve, base;
  bool baseline_ok = true;
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(a.seconds * 1e9);
  do {
    const PassResult r = RunPass(w, {});
    tally->Record(r);
    if (r.ok()) {
      total.push_back(r.times.total());
      setup.push_back(r.times.setup());
      solve.push_back(r.times.solve());
    }
    // Extra set-ups and baseline calls, each worth up to a tenth of the
    // pass, interleaved so that every statistic sees the same machine
    // conditions. Set-up is short next to a pass on the AddFact
    // workloads; the extra samples keep its statistics steady.
    double spent = 0;
    while (spent + r.times.setup() < 0.1 * r.times.total()) {
      const double s = RunSetupOnly(w);
      if (s < 0) break;
      setup.push_back(s);
      spent += s;
    }
    spent = 0;
    do {
      int64_t checksum = 0;
      const double s = Timed(nullptr, "", [&] { checksum = w.baseline(); });
      base.push_back(s);
      spent += s;
      baseline_ok = baseline_ok && checksum == w.baseline_expected;
    } while (spent < 0.1 * r.times.total());
  } while (NowNs() < deadline);

  // Pass times follow the shared host's load, which can slow a whole run
  // by a third. The gated metrics are therefore the fastest samples: the
  // fastest set-up, and the fastest pass over the fastest baseline call,
  // both measured in the same run. total_s and solve_s are printed, not
  // gated.
  const double best_total = Quantile(total, 0), best_base = Quantile(base, 0);
  rep->Add("total_s", Median(total), "s", Sampled(total), false);
  char fastest[96];
  std::snprintf(fastest, sizeof(fastest), "fastest of %zu; median %.6g",
                setup.size(), Median(setup));
  rep->Add("setup_s", Quantile(setup, 0), "s", fastest);
  rep->Add("solve_s", Median(solve), "s", Sampled(solve), false);
  rep->Add("baseline_ratio", Ratio(best_total, best_base), "x",
           Of(best_total, best_base) +
               " (fastest pass / fastest baseline call)");
  rep->Add("baseline_s", Median(base), "s", Sampled(base), false);
  rep->Add("peak_rss_mb", PeakRssMiB(), "MiB", "process peak RSS");
  return baseline_ok;
}

void RunTraced(const Workload& w, const Args& a, Tally* tally, Report* rep) {
  std::error_code ec;
  std::filesystem::create_directories(a.out, ec);
  // One file pair per workload: a later run overwrites an earlier one.
  const std::string stem = a.out + "/" + w.name;
  SpanLog spans;
  ReplayRows replay;
  std::vector<PassResult> traced;
  std::vector<double> untraced_total, untraced_solve;
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(a.seconds * 1e9);
  for (size_t i = 0;; ++i) {
    PassOptions o;
    const bool with_trace = i % 2 == 0;
    if (with_trace) {
      o.traced = true;
      o.spans = &spans;
      if (i == 0) {
        o.engine_trace_path = stem + "-engine-trace.json";
        o.replay = &replay;
      }
    }
    PassResult r = RunPass(w, o);
    tally->Record(r);
    if (r.ok()) {
      if (with_trace) {
        traced.push_back(std::move(r));
      } else {
        untraced_total.push_back(r.times.total());
        untraced_solve.push_back(r.times.solve());
      }
    }
    if (i >= 1 && NowNs() >= deadline) break;
  }
  const ReplayCosts rc = RunReplay(w.replay, replay, 3, &spans);
  if (!spans.WriteChromeTrace(stem + "-spans.json")) {
    std::fprintf(stderr, "span trace not written to %s-spans.json\n",
                 stem.c_str());
  }

  // Times are medians over the traced passes; counts come from the first
  // (Tally checks that every pass repeats them).
  auto med = [&](auto f) {
    std::vector<double> v;
    for (const PassResult& p : traced) v.push_back(f(p));
    return Median(v);
  };
  auto ns = [](uint64_t v) { return static_cast<double>(v) * 1e-9; };
  auto phase = [&](uint64_t gdlog::EnginePhaseTimes::*field) {
    return med([&](const PassResult& p) { return ns(p.layers.phases.*field); });
  };
  // Run's share outside absint, compile and eval: inserting the
  // program's inline facts, plus Run's own bookkeeping.
  auto fact_load = [&](const PassResult& p) {
    const gdlog::EnginePhaseTimes& t = p.layers.phases;
    return p.times.run - ns(t.absint_ns + t.compile_ns + t.eval_ns);
  };
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  const PassLayers l = traced.empty() ? PassLayers{} : traced[0].layers;
  const gdlog::FixpointStats& s = l.stats;

  const double parse_s = phase(&gdlog::EnginePhaseTimes::parse_ns);
  const double eval_s = phase(&gdlog::EnginePhaseTimes::eval_ns);
  const double saturate_s =
      med([&](const PassResult& p) { return ns(p.layers.stats.saturate_ns); });
  const double load_s =
      med([&](const PassResult& p) { return p.times.facts + fact_load(p); });
  const double edb_facts = count(w.api_facts + w.inline_facts);
  const double attempts = count(l.inserts + l.dedup_hits);
  const double fd_checks = count(l.fd_admissible + l.fd_inadmissible);

  rep->Add("total_s", Median(untraced_total), "s",
           "untraced passes, " + Sampled(untraced_total));
  rep->Add("solve_s", Median(untraced_solve), "s",
           "untraced passes, " + Sampled(untraced_solve));

  rep->Add("parser.s", parse_s, "s", "Engine phase time");
  rep->Add("parser.facts_per_s", Ratio(count(l.parsed_facts), parse_s), "1/s",
           Of(count(l.parsed_facts), parse_s) + " (parsed facts / parser.s)");
  rep->Add("analysis.s", phase(&gdlog::EnginePhaseTimes::analyze_ns), "s");
  rep->Add("absint.s", phase(&gdlog::EnginePhaseTimes::absint_ns), "s");
  rep->Add("run.fact_load_s", med(fact_load), "s",
           "Run span - absint - compile - eval");
  rep->Add("compile.s", phase(&gdlog::EnginePhaseTimes::compile_ns), "s");
  rep->Add("eval.s", eval_s, "s");
  rep->Add("eval.rounds", count(s.saturation_rounds), "count");
  rep->Add("eval.firings", count(s.gamma_firings), "count");
  rep->Add("eval.rounds_per_firing",
           Ratio(count(s.saturation_rounds), count(s.gamma_firings)), "ratio",
           Of(count(s.saturation_rounds), count(s.gamma_firings)) +
               " (0 when nothing fires)");
  const double rounds = count(s.saturation_rounds);
  rep->Add("eval.us_per_round", Ratio(saturate_s * 1e6, rounds), "us",
           Of(saturate_s * 1e6, rounds) + " (saturate us / rounds)");
  rep->Add("eval.saturate_s", saturate_s, "s");
  rep->Add("eval.gamma_s", med([&](const PassResult& p) {
             return ns(p.layers.stats.gamma_ns);
           }), "s");
  rep->Add("exec.solutions", count(s.exec.solutions), "count");
  rep->Add("exec.scan_rows", count(s.exec.scan_rows), "count");
  const double solutions = count(s.exec.solutions);
  rep->Add("exec.ns_per_solution", Ratio(eval_s * 1e9, solutions), "ns",
           Of(eval_s * 1e9, solutions) + " (eval ns / solutions)");
  rep->Add("index.rows_per_probe",
           Ratio(count(l.index_rows), count(l.index_probes)), "ratio",
           Of(count(l.index_rows), count(l.index_probes)) +
               " (EXPLAIN ANALYZE rows / probes)");
  rep->Add("storage.inserts", count(l.inserts), "count", "new derived rows");
  rep->Add("storage.dedup_hits", count(l.dedup_hits), "count");
  rep->Add("storage.dedup_ratio", Ratio(count(l.dedup_hits), attempts),
           "ratio", Of(count(l.dedup_hits), attempts) +
                        " (dedup hits / insert attempts)");
  rep->Add("storage.insert_ns", rc.insert_ns, "ns",
           "isolated Relation::Insert miss, " + std::to_string(rc.inserts) +
               " rows");
  rep->Add("storage.dedup_ns", rc.dedup_ns, "ns",
           "isolated Relation::Insert hit, " + std::to_string(rc.hits) +
               " rows");
  rep->Add("storage.probe_ns", rc.probe_ns, "ns",
           "isolated Index::Probe + walk, " + std::to_string(rc.probes) +
               " keys, " + std::to_string(rc.matches) + " matches");
  rep->Add("storage.index_build_ns", rc.index_build_ns, "ns",
           "isolated EnsureIndex per row, " + std::to_string(rc.indexed) +
               " rows",
           false);
  rep->Add("storage.load_ns_per_fact", Ratio(load_s * 1e9, edb_facts), "ns",
           Of(load_s * 1e9, edb_facts) +
               " ((AddFact loop + run.fact_load_s) ns / EDB facts)");
  rep->Add("storage.bytes_per_tuple",
           Ratio(count(l.relation_bytes), count(l.relation_rows)), "B",
           Of(count(l.relation_bytes), count(l.relation_rows)) +
               " (Relation::ApproxBytes / rows)");
  rep->Add("queue.inserted", count(s.queues.inserted), "count");
  rep->Add("queue.merged", count(s.queues.merged), "count");
  rep->Add("queue.redundant", count(s.queues.redundant), "count");
  rep->Add("queue.fired", count(s.queues.fired), "count");
  rep->Add("queue.max", count(s.queues.max_queue), "count");
  rep->Add("queue.fire_ratio",
           Ratio(count(s.queues.fired), count(s.queues.inserted)), "ratio",
           Of(count(s.queues.fired), count(s.queues.inserted)) +
               " (fired / inserted)");
  rep->Add("queue.push_ns", rc.push_ns, "ns",
           "isolated CandidateQueue::Push, " + std::to_string(rc.pushes) +
               " candidates");
  rep->Add("queue.pop_ns", rc.pop_ns, "ns",
           "isolated CandidateQueue::Pop, " + std::to_string(rc.pops) +
               " pops");
  rep->Add("choice.fd_checks", fd_checks, "count",
           "choice.admissible + choice.inadmissible");
  const double rejects = count(l.fd_inadmissible);
  rep->Add("choice.fd_reject_ratio", Ratio(rejects, fd_checks), "ratio",
           Of(rejects, fd_checks) + " (inadmissible / checks)");
  rep->Add("query.s", med([](const PassResult& p) { return p.times.query; }),
           "s");
  rep->Add("teardown.s",
           med([](const PassResult& p) { return p.times.teardown; }), "s");
  const double traced_total =
      med([](const PassResult& p) { return p.times.total(); });
  const double plain_total = Median(untraced_total);
  rep->Add("obs.trace_overhead", Ratio(traced_total, plain_total) - 1,
           "ratio",
           Of(traced_total, plain_total) +
               " - 1 (traced / untraced total_s, " +
               std::to_string(traced.size()) + " / " +
               std::to_string(untraced_total.size()) + " passes)");
  rep->Add("memory.tracked_peak_mb",
           count(l.tracked_peak_bytes) / (1024.0 * 1024.0), "MiB",
           "MemoryBudget high-water mark");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out DIR]\n",
                 argv[0]);
    return 2;
  }
  std::optional<Workload> w = MakeWorkload(args.workload, args.seed);
  if (!w) {
    std::fprintf(stderr,
                 "unknown workload '%s' (prim_text, match_api, tc_skip)\n",
                 args.workload.c_str());
    return 2;
  }

  bool correct = true;
  const std::string stable = CheckStableModelSmall(w->name, args.seed);
  if (!stable.empty()) {
    std::fprintf(stderr, "stable-model check failed: %s\n", stable.c_str());
    correct = false;
  }
  const int64_t checksum = w->baseline();
  if (checksum != w->baseline_expected) {
    std::fprintf(stderr, "baseline returned %lld, expected %lld\n",
                 static_cast<long long>(checksum),
                 static_cast<long long>(w->baseline_expected));
    correct = false;
  }

  Tally tally;
  tally.Record(RunPass(*w, {}));  // warm-up: checked, not timed
  Report rep;
  if (args.trace == 0) {
    if (!RunEndToEnd(*w, args, &tally, &rep)) {
      std::fprintf(stderr, "baseline checksum changed between calls\n");
      correct = false;
    }
  } else {
    RunTraced(*w, args, &tally, &rep);
  }
  const double error_rate = static_cast<double>(tally.failed) /
                            static_cast<double>(tally.attempted);
  rep.Add("error_rate", error_rate, "fraction",
          Of(static_cast<double>(tally.failed),
             static_cast<double>(tally.attempted)) +
              " (failed / attempted passes)",
          args.trace == 1);
  std::string unstable;
  for (const std::string& n : tally.mismatched) unstable += " " + n;
  rep.Add("counts.mismatched", static_cast<double>(tally.mismatched.size()),
          "count",
          unstable.empty() ? "every count repeated exactly"
                           : "differed across passes:" + unstable,
          args.trace == 1);
  correct = correct && tally.failed == 0;

  std::printf("# gdlog_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  rep.PrintTable(stdout);
  std::printf("%s\n",
              rep.JsonLine(correct, tally.attempted, tally.failed).c_str());
  return 0;
}
