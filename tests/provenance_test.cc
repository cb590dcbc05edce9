// Derivation provenance & choice audit (observability PR 6):
//
//   1. Why() must reproduce a proof tree counted by hand on a tiny
//      fixture — the annotation column is asserted row-by-row, not just
//      "some tree came back".
//   2. Provenance is pure metadata: with it on or off, the shipped
//      choice programs produce bit-identical models.
//   3. The choice audit must agree with the procedural baselines: the
//      sum of audited winner costs is exactly the baseline MST /
//      Huffman cost, and the firing count matches the merge count.
//   4. Error paths (before Run, provenance off, unknown tuples) fail
//      cleanly, and the build-info / flight-recorder satellites show up
//      where documented.
//
// Hand-counted fixture (same as explain_analyze_test):
//   e(1,2). e(1,3). e(2,3).   f(2..7).   g(3).
//   p(X,Y) <- e(X,Y), f(Y).
//   q(X)   <- p(X,Y), g(Y).
// q(1) has exactly one derivation: {g(3), p(1,3)}, and p(1,3) has
// exactly one: {e(1,3), f(3)} — so the tree below is forced, whatever
// join order the planner picks (premise order inside a node is
// plan-dependent, so assertions are order-insensitive).
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "baselines/huffman.h"
#include "baselines/kruskal.h"
#include "baselines/prim.h"
#include "common/build_info.h"
#include "greedy/huffman.h"
#include "greedy/kruskal.h"
#include "greedy/prim.h"
#include "obs/json.h"
#include "obs/provenance.h"
#include "storage/tuple.h"
#include "workload/graph_gen.h"
#include "workload/text_gen.h"

namespace gdlog {
namespace {

constexpr char kFixture[] = R"(
  e(1,2). e(1,3). e(2,3).
  f(2). f(3). f(4). f(5). f(6). f(7).
  g(3).
  p(X,Y) <- e(X,Y), f(Y).
  q(X) <- p(X,Y), g(Y).
)";

EngineOptions WithProvenance() {
  EngineOptions opts;
  opts.provenance = true;
  return opts;
}

std::set<std::string> PremiseAtoms(const ProofNode& n) {
  std::set<std::string> atoms;
  for (const ProofNode& p : n.premises) atoms.insert(p.atom);
  return atoms;
}

const ProofNode* FindPremise(const ProofNode& n, const std::string& atom) {
  for (const ProofNode& p : n.premises) {
    if (p.atom == atom) return &p;
  }
  return nullptr;
}

// -- 1. Hand-counted proof tree ------------------------------------------

TEST(Provenance, WhyReproducesHandCountedProofTree) {
  Engine e(WithProvenance());
  ASSERT_TRUE(e.LoadProgram(kFixture).ok());
  ASSERT_TRUE(e.Run().ok());

  auto why = e.Why("q", {Value::Int(1)});
  ASSERT_TRUE(why.ok()) << why.status().ToString();
  EXPECT_EQ(why->atom, "q(1)");
  EXPECT_FALSE(why->truncated);
  EXPECT_NE(why->rule.find("q(X)"), std::string::npos) << why->rule;

  // q(1) <- { g(3), p(1,3) } — the only solution of rule q for X=1.
  EXPECT_EQ(PremiseAtoms(*why),
            (std::set<std::string>{"g(3)", "p(1, 3)"}));

  const ProofNode* g3 = FindPremise(*why, "g(3)");
  ASSERT_NE(g3, nullptr);
  EXPECT_EQ(g3->rule_index, Relation::kEdbRule);
  EXPECT_TRUE(g3->premises.empty());
  EXPECT_TRUE(g3->rule.empty());

  // p(1,3) <- { e(1,3), f(3) }, both asserted facts.
  const ProofNode* p13 = FindPremise(*why, "p(1, 3)");
  ASSERT_NE(p13, nullptr);
  EXPECT_NE(p13->rule.find("p(X, Y)"), std::string::npos) << p13->rule;
  EXPECT_EQ(PremiseAtoms(*p13),
            (std::set<std::string>{"e(1, 3)", "f(3)"}));
  for (const ProofNode& leaf : p13->premises) {
    EXPECT_EQ(leaf.rule_index, Relation::kEdbRule) << leaf.atom;
    EXPECT_TRUE(leaf.premises.empty()) << leaf.atom;
  }
}

TEST(Provenance, DepthBoundMarksTruncation) {
  Engine e(WithProvenance());
  ASSERT_TRUE(e.LoadProgram(kFixture).ok());
  ASSERT_TRUE(e.Run().ok());
  auto why = e.Why("q", {Value::Int(1)}, /*max_depth=*/0);
  ASSERT_TRUE(why.ok());
  EXPECT_TRUE(why->truncated);
  EXPECT_TRUE(why->premises.empty());
  // One level down: q's premises present, p's elided.
  auto one = e.Why("q", {Value::Int(1)}, /*max_depth=*/1);
  ASSERT_TRUE(one.ok());
  EXPECT_FALSE(one->truncated);
  const ProofNode* p13 = FindPremise(*one, "p(1, 3)");
  ASSERT_NE(p13, nullptr);
  EXPECT_TRUE(p13->truncated);
  EXPECT_TRUE(p13->premises.empty());
}

TEST(Provenance, RenderersCoverTextJsonDot) {
  Engine e(WithProvenance());
  ASSERT_TRUE(e.LoadProgram(kFixture).ok());
  ASSERT_TRUE(e.Run().ok());

  auto text = e.WhyText("q(1)");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("q(1)"), std::string::npos);
  EXPECT_NE(text->find("[fact]"), std::string::npos);

  // pred/arity targets resolve to the relation's last derived row.
  auto last = e.WhyText("q/1");
  ASSERT_TRUE(last.ok()) << last.status().ToString();

  auto json = e.WhyJson("q(1)");
  ASSERT_TRUE(json.ok());
  auto doc = ParseJson(*json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* atom = doc->Find("atom");
  ASSERT_NE(atom, nullptr);
  EXPECT_EQ(atom->string, "q(1)");
  ASSERT_NE(doc->Find("premises"), nullptr);
  EXPECT_EQ(doc->Find("premises")->items.size(), 2u);

  auto dot = e.WhyDot("q(1)");
  ASSERT_TRUE(dot.ok());
  EXPECT_NE(dot->find("digraph"), std::string::npos);
  EXPECT_NE(dot->find("->"), std::string::npos);
  EXPECT_NE(dot->find("q(1)"), std::string::npos);
}

TEST(Provenance, ErrorPathsFailCleanly) {
  {
    // Before Run.
    Engine e(WithProvenance());
    ASSERT_TRUE(e.LoadProgram(kFixture).ok());
    EXPECT_FALSE(e.Why("q", {Value::Int(1)}).ok());
    EXPECT_FALSE(e.ChoiceAuditText().ok());
  }
  {
    // Provenance off: the annotation column does not exist.
    Engine e;
    ASSERT_TRUE(e.LoadProgram(kFixture).ok());
    ASSERT_TRUE(e.Run().ok());
    EXPECT_FALSE(e.WhyText("q(1)").ok());
    EXPECT_EQ(e.ChoiceAudit(), nullptr);
    EXPECT_FALSE(e.ChoiceAuditText().ok());
  }
  {
    Engine e(WithProvenance());
    ASSERT_TRUE(e.LoadProgram(kFixture).ok());
    ASSERT_TRUE(e.Run().ok());
    EXPECT_FALSE(e.WhyText("q(99)").ok());        // not derived
    EXPECT_FALSE(e.WhyText("zzz(1)").ok());       // unknown predicate
    EXPECT_FALSE(e.WhyText("zzz/3").ok());        // unknown relation
    EXPECT_FALSE(e.WhyText("not an atom").ok());  // unparseable
  }
}

// -- 2. Provenance is invisible to the model -----------------------------

std::string ReadFileOrDie(const std::string& name) {
  std::ifstream in(std::string(GDLOG_SOURCE_DIR) + "/programs/" + name);
  EXPECT_TRUE(in.good()) << "cannot open " << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> DumpModel(const Engine& e) {
  std::vector<std::string> lines;
  for (const auto& ref : e.program()->AllPredicates()) {
    for (const auto& tuple : e.Query(ref.name, ref.arity)) {
      std::string line = ref.name;
      line += TupleToString(e.store(), TupleView(tuple));
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

class ProvenanceDifferential : public ::testing::TestWithParam<const char*> {
};

TEST_P(ProvenanceDifferential, ModelBitIdenticalOnOff) {
  const std::string text = ReadFileOrDie(GetParam());
  auto run = [&text](bool provenance) {
    EngineOptions opts = WithProvenance();
    opts.provenance = provenance;
    Engine e(opts);
    EXPECT_TRUE(e.LoadProgram(text).ok());
    auto st = e.Run();
    EXPECT_TRUE(st.ok()) << st.ToString();
    return DumpModel(e);
  };
  const std::vector<std::string> baseline = run(false);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(run(true), baseline) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Programs, ProvenanceDifferential,
                         ::testing::Values("prim.dl", "kruskal.dl",
                                           "huffman.dl",
                                           "course_assignment.dl"));

// -- 3. Choice audit vs procedural baselines -----------------------------

int64_t AuditCostSum(const ChoiceAuditTrail* audit) {
  int64_t sum = 0;
  for (const ChoiceAuditEntry& e : audit->entries()) sum += e.cost.AsInt();
  return sum;
}

TEST(ChoiceAudit, PrimWinnersMatchBaseline) {
  GraphGenOptions gen;
  gen.seed = 17;
  const Graph g = ConnectedRandomGraph(30, 60, gen);
  auto r = PrimMst(g, 0, WithProvenance());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ChoiceAuditTrail* audit = r->engine->ChoiceAudit();
  ASSERT_NE(audit, nullptr);
  // One audited firing per tree edge; the audited winner costs sum to
  // exactly the procedural MST cost.
  EXPECT_EQ(audit->entries().size(), r->edges.size());
  EXPECT_EQ(AuditCostSum(audit), BaselinePrim(g, 0).total_cost);
  for (const ChoiceAuditEntry& e : audit->entries()) {
    EXPECT_TRUE(e.fired);
    EXPECT_GE(e.stage, 1);
    EXPECT_GE(e.candidate_set, 1u);
    EXPECT_GE(e.pops, 1u);
    EXPECT_EQ(e.witness.rfind("prm(", 0), 0u) << e.witness;
  }
  // Each audited witness is the stage's tree edge, in firing order.
  ASSERT_EQ(audit->entries().size(), r->edges.size());
  for (size_t i = 0; i < r->edges.size(); ++i) {
    EXPECT_EQ(audit->entries()[i].cost.AsInt(), r->edges[i].cost);
  }
}

TEST(ChoiceAudit, KruskalWinnersMatchBaseline) {
  GraphGenOptions gen;
  gen.seed = 23;
  const Graph g = ConnectedRandomGraph(20, 40, gen);
  auto r = KruskalMst(g, WithProvenance());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ChoiceAuditTrail* audit = r->engine->ChoiceAudit();
  ASSERT_NE(audit, nullptr);
  EXPECT_EQ(audit->entries().size(), r->edges.size());
  EXPECT_EQ(AuditCostSum(audit), BaselineKruskal(g).total_cost);
}

TEST(ChoiceAudit, HuffmanFiringsEqualMergeCount) {
  TextGenOptions gen;
  gen.seed = 11;
  const auto freqs = ZipfLetterFrequencies(10, gen);
  auto r = HuffmanTree(freqs, WithProvenance());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ChoiceAuditTrail* audit = r->engine->ChoiceAudit();
  ASSERT_NE(audit, nullptr);
  // k letters -> k-1 merges, one gamma firing each; merged-node costs
  // sum to the weighted path length the baseline computes.
  EXPECT_EQ(audit->entries().size(), freqs.size() - 1);
  EXPECT_EQ(audit->entries().size(), r->merges);
  EXPECT_EQ(AuditCostSum(audit), BaselineHuffman(freqs).total_cost);
}

TEST(ChoiceAudit, RejectionsAndTiesAreVisible) {
  // Triangle with a forced rejection: Kruskal takes costs 1 and 2, then
  // pops the cost-3 edge whose endpoints are already connected — its
  // post plan yields no solution, so the audit never fires for it and
  // the rejection lands in the flight recorder as a contested choice.
  Graph g;
  g.num_nodes = 3;
  g.edges = {{0, 1, 1}, {1, 2, 2}, {0, 2, 3}};
  auto r = KruskalMst(g, WithProvenance());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ChoiceAuditTrail* audit = r->engine->ChoiceAudit();
  ASSERT_NE(audit, nullptr);
  ASSERT_EQ(audit->entries().size(), 2u);
  uint64_t rejected_post = 0;
  for (const ChoiceAuditEntry& e : audit->entries()) {
    rejected_post += e.rejected_post;
  }
  EXPECT_EQ(rejected_post, 0u)  // both winners fire on their first pop
      << "winners should not absorb the cycle edge's rejection";
  const std::string blackbox = r->engine->DumpFlightRecorder();
  EXPECT_NE(blackbox.find("choice-reject"), std::string::npos) << blackbox;

  auto text = r->engine->ChoiceAuditText();
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("chose"), std::string::npos);
  EXPECT_NE(text->find("kruskal("), std::string::npos);
}

// -- 4. Report, metrics, build info --------------------------------------

TEST(ChoiceAudit, RunReportCarriesProvenanceAndChoices) {
  Engine e(WithProvenance());
  ASSERT_TRUE(e.LoadProgram(kFixture).ok());
  ASSERT_TRUE(e.Run().ok());
  auto report = e.RunReport();
  ASSERT_TRUE(report.ok());
  auto doc = ParseJson(*report);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  const JsonValue* prov = doc->Find("provenance");
  ASSERT_NE(prov, nullptr);
  const JsonValue* enabled = prov->Find("enabled");
  ASSERT_NE(enabled, nullptr);
  EXPECT_TRUE(enabled->boolean);
  const JsonValue* annotated = prov->Find("rows_annotated");
  ASSERT_NE(annotated, nullptr);
  // 3 p rows + 2 q rows derived; EDB facts are annotated too.
  EXPECT_GE(annotated->number, 5.0);

  const JsonValue* choices = doc->Find("choices");
  ASSERT_NE(choices, nullptr);
  ASSERT_TRUE(choices->is_object());  // null only when audit is off
  ASSERT_NE(choices->Find("total"), nullptr);
  EXPECT_EQ(choices->Find("total")->number, 0.0);  // no gamma rules here

  const JsonValue* build = doc->Find("build");
  ASSERT_NE(build, nullptr);
  ASSERT_NE(build->Find("version"), nullptr);
  EXPECT_EQ(build->Find("version")->string, GetBuildInfo().version);
}

TEST(ChoiceAudit, ChoiceSeriesReachPrometheus) {
  GraphGenOptions gen;
  gen.seed = 29;
  const Graph g = ConnectedRandomGraph(12, 24, gen);
  auto r = PrimMst(g, 0, WithProvenance());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto metrics = r->engine->MetricsText();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("gdlog_choice_candidate_set"), std::string::npos);
  EXPECT_NE(metrics->find("gdlog_choice_audit_firings_total"),
            std::string::npos);
}

TEST(BuildInfo, GaugeAndReportExposeBuildIdentity) {
  const BuildInfo& info = GetBuildInfo();
  EXPECT_NE(info.version, nullptr);
  EXPECT_STRNE(info.version, "");
  Engine e;
  ASSERT_TRUE(e.LoadProgram("p(X) <- q(X).").ok());
  ASSERT_TRUE(e.AddFact("q", {Value::Int(1)}).ok());
  ASSERT_TRUE(e.Run().ok());
  auto metrics = e.MetricsText();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("gdlog_build_info"), std::string::npos);
  EXPECT_NE(metrics->find(info.version), std::string::npos);
}

}  // namespace
}  // namespace gdlog
