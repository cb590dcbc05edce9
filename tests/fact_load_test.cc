// Inline facts are data: the parser turns each ground fact into a row of
// its predicate's batch, and LoadProgram inserts the batches into the
// catalog through the one EDB load path, which AddFacts, AddFact and WAL
// replay share. These tests pin the rows every fact form yields, that
// the raw fact scan and the token parser agree, the errors malformed
// facts keep, that every load path builds the same relations, and the
// allocation profile of bulk loads.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <span>
#include <sstream>

#include "api/engine.h"
#include "common/rng.h"
#include "parser/parser.h"

// Counts global operator new calls, so a test can bound the allocations
// of a load.
namespace {
size_t g_allocations = 0;
}  // namespace

// GCC treats the replaced operator new as the builtin and flags the
// free() in the matching replaced delete as a mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace gdlog {
namespace {

using Rows = std::vector<std::vector<Value>>;

std::string ReadFixture(const std::string& name) {
  std::ifstream in(std::string(GDLOG_SOURCE_DIR) + "/tests/fixtures/" + name);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(FactLoad, EveryFormLoadsAsItsRow) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(ReadFixture("fact_forms.dl")).ok());
  ValueStore& s = e.store();
  auto sym = [&](std::string_view name) { return s.MakeSymbol(name); };
  auto term = [&](std::string_view f, std::vector<Value> args) {
    return s.MakeTerm(f, args);
  };
  const Value i = Value::Int(1);
  const std::vector<std::pair<std::string, Rows>> want = {
      {"num", {{Value::Int(0)},
               {Value::Int(-7)},
               {Value::Int(42)},
               {Value::Int(Value::kMaxInt)},
               {Value::Int(-Value::kMaxInt)}}},
      {"name", {{sym("alice")},
                {sym("bob")},
                {sym("tab\tquote\"backslash\\newline\n")},
                {Value::Nil()}}},
      {"flag", {{}}},
      {"boxed", {{s.MakeTuple(std::vector<Value>{i, sym("a")})},
                 {term("t", {Value::Int(2), sym("b")})},
                 {term("t", {term("u", {Value::Int(3)}), sym("c")})}}},
      // Arithmetic in a fact is a term, not a number.
      {"sum", {{term("+", {i, Value::Int(2)})},
               {term("-", {term("*", {Value::Int(3), Value::Int(4)}),
                           Value::Int(5)})}}},
      {"spread", {{i, sym("two"), sym("three")}}},
      {"pair", {{sym("a"), i},
                {sym("b"), Value::Int(2)},
                {sym("c"), Value::Int(3)}}},
      {"unused", {{sym("x")}}},
  };
  for (const auto& [pred, rows] : want) {
    const auto arity = static_cast<uint32_t>(rows[0].size());
    EXPECT_EQ(e.Query(pred, arity), rows) << pred;
  }
  // Only the three rules are rules; every fact is a batch row, and the
  // batches remember where their predicate's first fact stood.
  const Program& p = *e.program();
  ASSERT_EQ(p.rules.size(), 3u);
  EXPECT_EQ(p.ClauseOf(0), 20u);
  EXPECT_EQ(p.ClauseOf(2), 22u);
  ASSERT_EQ(p.facts.size(), want.size());
  for (size_t b = 0; b < want.size(); ++b) {
    EXPECT_EQ(p.facts[b].predicate, want[b].first);
    EXPECT_EQ(p.facts[b].count, want[b].second.size());
  }
  EXPECT_EQ(p.facts[7].first_clause, 19u);
  EXPECT_EQ(p.facts[7].loc, (SourceLoc{32, 1}));
  ASSERT_TRUE(e.Run().ok());
  EXPECT_EQ(e.Query("paired", 2).size(), 2u);
}

// One generated fact text, written twice: as is, where the raw scan
// takes every ground fact over constants, and with every constant in
// parentheses, which sends each fact to the token parser instead. Where
// the boxed text has its parentheses the plain text has a blank, so both
// put every token at the same line and column.
struct FactTexts {
  std::string plain;
  std::string boxed;
  void Add(std::string_view both) {
    plain += both;
    boxed += both;
  }
  void AddConstant(const std::string& c) {
    plain += " " + c + " ";
    boxed += "(" + c + ")";
  }
};

// Whitespace and comments, as may stand between any two tokens.
std::string Blank(Rng& rng) {
  static const char* const kBlanks[] = {
      "",        " ",          "\t",           "\r\n",
      "  \t",    " % note\n",  "// note\r\n",  "/* note */",
      "/*\n*/",  "\t\n ",
  };
  return kBlanks[rng.NextBounded(std::size(kBlanks))];
}

std::string RandomConstant(Rng& rng) {
  static const char* const kWords[] = {"not",  "next", "least", "most",
                                       "choice", "mod", "nil_x", "a_1"};
  static const char* const kStrings[] = {"\"x y\"", "\"a\tb\"", "\"\"",
                                         "\" lead and trail \""};
  switch (rng.NextBounded(10)) {
    case 0:
      return "0";
    case 1:
      return "-0";
    case 2:
      return std::to_string(Value::kMaxInt);
    case 3:
      return std::to_string(-Value::kMaxInt);
    case 4:
      return std::to_string(rng.NextInt(-1000000, 1000000));
    case 5:
      return "000" + std::to_string(rng.NextBounded(1000));
    case 6:
      return kWords[rng.NextBounded(std::size(kWords))];
    case 7: {
      std::string w(1, static_cast<char>('a' + rng.NextBounded(26)));
      for (uint64_t i = rng.NextBounded(6); i > 0; --i) {
        w += "az_9"[rng.NextBounded(4)];
      }
      return w;
    }
    case 8:
      return kStrings[rng.NextBounded(std::size(kStrings))];
    default:
      return "nil";
  }
}

// A fact of one of five predicates (p/2 beside p/3; flag/0 written as
// `flag.` or `flag().`), or now and then a rule.
void AddClause(Rng& rng, FactTexts* t) {
  if (rng.NextBounded(25) == 0) {
    t->Add(rng.NextBounded(2) == 0 ? "s(X) <- q(X)."
                                   : "u(X, Y) :- p(X, Y), not r(Y, X).");
  } else {
    static const std::pair<const char*, int> kPreds[] = {
        {"p", 3}, {"q", 1}, {"r", 2}, {"flag", 0}, {"p", 2}};
    const auto& [name, arity] = kPreds[rng.NextBounded(std::size(kPreds))];
    t->Add(name);
    t->Add(Blank(rng));
    if (arity > 0 || rng.NextBounded(2) == 0) {
      t->Add("(");
      for (int i = 0; i < arity; ++i) {
        t->Add(Blank(rng));
        if (i > 0) {
          t->Add(",");
          t->Add(Blank(rng));
        }
        t->AddConstant(RandomConstant(rng));
      }
      t->Add(Blank(rng));
      t->Add(")");
      t->Add(Blank(rng));
    }
    t->Add(".");
  }
  t->Add(Blank(rng));
  t->Add(rng.NextBounded(3) == 0 ? "\n" : " ");
}

void ExpectSameClauses(const Program& a, const Program& b) {
  ASSERT_EQ(a.facts.size(), b.facts.size());
  for (size_t i = 0; i < a.facts.size(); ++i) {
    const FactBatch& x = a.facts[i];
    const FactBatch& y = b.facts[i];
    EXPECT_EQ(x.predicate, y.predicate);
    EXPECT_EQ(x.arity, y.arity);
    EXPECT_EQ(x.count, y.count) << x.predicate;
    EXPECT_EQ(x.rows, y.rows) << x.predicate;
    EXPECT_EQ(x.first_clause, y.first_clause) << x.predicate;
    EXPECT_EQ(x.loc, y.loc) << x.predicate;
  }
  ASSERT_EQ(a.rules.size(), b.rules.size());
  for (size_t i = 0; i < a.rules.size(); ++i) {
    EXPECT_EQ(a.ClauseOf(i), b.ClauseOf(i));
  }
}

TEST(FactLoad, ScanAndParserYieldTheSameRows) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    FactTexts t;
    for (int i = 0; i < 500; ++i) AddClause(rng, &t);
    ValueStore s;
    auto plain = ParseProgram(&s, t.plain);
    auto boxed = ParseProgram(&s, t.boxed);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_TRUE(boxed.ok()) << boxed.status().ToString();
    ExpectSameClauses(*plain, *boxed);
    // A literal out of range, however written, fails both texts with the
    // token parser's error, even one whose digits wrap 64 bits to a
    // small number.
    for (const char* bad : {"1152921504606846976", "-1152921504606846976",
                            "18446744073709551617", "99999999999999999999",
                            "0018446744073709551616"}) {
      FactTexts b = t;
      b.Add("\nq(");
      b.AddConstant(bad);
      b.Add(").");
      auto bad_plain = ParseProgram(&s, b.plain);
      auto bad_boxed = ParseProgram(&s, b.boxed);
      EXPECT_FALSE(bad_plain.ok()) << bad;
      EXPECT_EQ(bad_plain.status().ToString(), bad_boxed.status().ToString());
    }
  }
}

TEST(FactLoad, MalformedFactsKeepTheirErrors) {
  // Each status, with its code, line and column, is the one the full
  // parser reports for the same text; no malformed fact aborts.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"g(1, 2",
       "ParseError: expected ')' to close argument list at line 1, "
       "column 7 (found end of input)"},
      {"g(1,,2).",
       "ParseError: expected a term at line 1, column 5 (found ',')"},
      {"g(\"abc).",
       "ParseError: unterminated string literal at line 1, column 3"},
      {"g(1152921504606846976).",
       "ParseError: [GD110] integer literal out of range (inline ints "
       "span [-1152921504606846976, 1152921504606846975]) at line 1, "
       "column 3"},
      {"g(-1152921504606846976).",
       "ParseError: [GD110] integer literal out of range (inline ints "
       "span [-1152921504606846976, 1152921504606846975]) at line 1, "
       "column 4"},
      {"g(99999999999999999999).",
       "ParseError: [GD110] integer literal out of range (inline ints "
       "span [-1152921504606846976, 1152921504606846975]) at line 1, "
       "column 3"},
      {"g(1)",
       "ParseError: expected '.' to end rule at line 1, column 5 (found "
       "end of input)"},
      {"g(\"a\\qb\").",
       "ParseError: unknown escape '\\q' at line 1, column 5"},
      {"g(1).\nh(2,\n  3",
       "ParseError: expected ')' to close argument list at line 3, "
       "column 4 (found end of input)"},
      {"g(1 2).",
       "ParseError: expected ')' to close argument list at line 1, "
       "column 5 (found integer)"},
      {"g(1);", "ParseError: unexpected character ';' at line 1, column 5"},
      {"@", "ParseError: unexpected character '@' at line 1, column 1"},
      {"g(1). /* open",
       "ParseError: unterminated block comment at line 1, column 7"},
      // A column counts bytes: a tab is one, and a CRLF ends its line.
      {"g(1).\n\n\tg(1);",
       "ParseError: unexpected character ';' at line 3, column 6"},
      {"g(1).\r\n\r\ng(1, /* a\nb */ 2);",
       "ParseError: unexpected character ';' at line 4, column 8"},
      {"g(1).\r\ng(2).\r\n\tg(\"a\\qb\").",
       "ParseError: unknown escape '\\q' at line 3, column 6"},
      {"g(1).\r\n% note\r\n  g(\"a\nb\", 1152921504606846976).",
       "ParseError: [GD110] integer literal out of range (inline ints "
       "span [-1152921504606846976, 1152921504606846975]) at line 4, "
       "column 5"},
      {"g(1).\n\tg(\"a\r\nb).",
       "ParseError: unterminated string literal at line 2, column 4"},
      {"g(1).\r\n\t/* a\r\n b",
       "ParseError: unterminated block comment at line 2, column 2"},
      {"g(nil(1)).",
       "ParseError: expected ')' to close argument list at line 1, "
       "column 6 (found '(')"},
  };
  for (const auto& [text, status] : cases) {
    Engine e;
    EXPECT_EQ(e.LoadProgram(text).ToString(), status) << text;
  }
  // A fact with a variable is a rule without a body: it loads, and Run
  // says which variable keeps it from being ground.
  Engine e;
  ASSERT_TRUE(e.LoadProgram("g(1). p(X). q(Y) <- g(Y).").ok());
  EXPECT_EQ(e.Run().ToString(),
            "InvalidArgument: fact contains variable X");
}

TEST(FactLoad, InlineFactsAllocatePerGrowthNotPerFact) {
  // One rule and 20k integer facts over two predicates, interleaved so
  // that consecutive facts change batch.
  std::string text = "r(X, Y) <- p(X, Y), q(Y).\n";
  for (int i = 0; i < 10000; ++i) {
    text += "p(" + std::to_string(i) + ", " + std::to_string(i % 97) +
            ").\nq(" + std::to_string(i) + ").\n";
  }
  Engine e;
  const size_t before = g_allocations;
  ASSERT_TRUE(e.LoadProgram(text).ok());
  EXPECT_LT(g_allocations - before, 2000u);
  EXPECT_EQ(e.program()->rules.size(), 1u);
  EXPECT_EQ(e.Query("p", 2).size(), 10000u);
  EXPECT_EQ(e.Query("q", 1).size(), 10000u);
}

// -- Every EDB load path ----------------------------------------------------

// One cell of a generated row: an int, or a symbol by name (interned in
// each engine's own store).
struct Cell {
  int64_t num = 0;
  std::string sym;  // empty for an int
};
struct EdbRow {
  size_t pred;
  std::vector<Cell> cells;
};
constexpr std::pair<const char*, uint32_t> kEdbPreds[] = {
    {"a", 2}, {"b", 3}, {"c", 1}};

// `n` rows over the three predicates, 10-30% of them repeats of earlier
// rows.
std::vector<EdbRow> RandomEdbRows(Rng& rng, size_t n) {
  std::vector<EdbRow> rows;
  const uint64_t dup_pct = 10 + rng.NextBounded(21);
  while (rows.size() < n) {
    if (!rows.empty() && rng.NextBounded(100) < dup_pct) {
      rows.push_back(rows[rng.NextBounded(rows.size())]);
      continue;
    }
    EdbRow r{rng.NextBounded(3), {}};
    for (uint32_t i = 0; i < kEdbPreds[r.pred].second; ++i) {
      Cell c;
      if (rng.NextBounded(4) == 0) {
        c.sym = std::string("s") + std::to_string(rng.NextBounded(50));
      } else {
        c.num = rng.NextInt(-Value::kMaxInt, Value::kMaxInt) >> 40;
      }
      r.cells.push_back(c);
    }
    rows.push_back(std::move(r));
  }
  return rows;
}

std::vector<Value> ValuesOf(Engine& e, const EdbRow& r) {
  std::vector<Value> v;
  for (const Cell& c : r.cells) {
    v.push_back(c.sym.empty() ? Value::Int(c.num) : e.Sym(c.sym));
  }
  return v;
}

std::string TextOf(const std::vector<EdbRow>& rows) {
  std::string text;
  for (const EdbRow& r : rows) {
    text += kEdbPreds[r.pred].first;
    text += "(";
    for (size_t i = 0; i < r.cells.size(); ++i) {
      if (i > 0) text += ", ";
      text += r.cells[i].sym.empty() ? std::to_string(r.cells[i].num)
                                     : r.cells[i].sym;
    }
    text += ").\n";
  }
  return text;
}

// Loads `rows` with AddFacts: per predicate, in calls of `chunk(rng)`
// rows each (all of them when `chunk` is null), the predicates' calls
// interleaved at random.
Status AddInChunks(Engine& e, const std::vector<EdbRow>& rows, Rng& rng,
                   size_t (*chunk)(Rng&)) {
  std::vector<Value> flat[3];
  for (const EdbRow& r : rows) {
    const std::vector<Value> v = ValuesOf(e, r);
    flat[r.pred].insert(flat[r.pred].end(), v.begin(), v.end());
  }
  size_t next[3] = {0, 0, 0};
  for (;;) {
    std::vector<size_t> open;
    for (size_t p = 0; p < 3; ++p) {
      if (next[p] < flat[p].size()) open.push_back(p);
    }
    if (open.empty()) return Status::OK();
    const size_t p = open[rng.NextBounded(open.size())];
    const uint32_t arity = kEdbPreds[p].second;
    const size_t left = (flat[p].size() - next[p]) / arity;
    const size_t n = chunk == nullptr ? left : std::min(left, chunk(rng));
    GDLOG_RETURN_IF_ERROR(e.AddFacts(
        kEdbPreds[p].first, arity,
        std::span<const Value>(flat[p]).subspan(next[p], n * arity)));
    next[p] += n * arity;
  }
}

// Every relation of the engine rendered row by row, in storage order.
std::vector<std::vector<std::string>> Relations(const Engine& e) {
  std::vector<std::vector<std::string>> out;
  for (const auto& [name, arity] : kEdbPreds) {
    std::vector<std::string>& rel = out.emplace_back();
    for (const auto& row : e.Query(name, arity)) {
      rel.push_back(TupleToString(e.store(), row));
    }
  }
  return out;
}

// The relations' summed ApproxBytes: all that a load charges, as long
// as it interns no new symbol.
size_t RelationBytes(const Engine& e) {
  size_t bytes = 0;
  for (const auto& [name, arity] : kEdbPreds) {
    if (const Relation* r = e.Find(name, arity)) bytes += r->ApproxBytes();
  }
  return bytes;
}

enum class LoadWay { kText, kOneCall, kChunks, kPerRow, kDurable, kProvenance };

TEST(FactLoad, EveryLoadPathBuildsTheSameRelations) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng gen(seed);
    const std::vector<EdbRow> first = RandomEdbRows(gen, 600);
    // The row to retract between the loads, which the second load adds
    // again (now at the end).
    const EdbRow gone = first[gen.NextBounded(first.size())];
    std::vector<EdbRow> second = RandomEdbRows(gen, 300);
    second.insert(second.begin() + static_cast<std::ptrdiff_t>(
                                       gen.NextBounded(second.size())),
                  gone);
    std::vector<std::vector<std::string>> want;
    for (LoadWay way : {LoadWay::kPerRow, LoadWay::kText, LoadWay::kOneCall,
                        LoadWay::kChunks, LoadWay::kDurable,
                        LoadWay::kProvenance}) {
      SCOPED_TRACE("way " + std::to_string(static_cast<int>(way)));
      EngineOptions o;
      const std::string dir = ::testing::TempDir() + "gdlog_fact_load_" +
                              std::to_string(::getpid()) + "_" +
                              std::to_string(seed);
      if (way == LoadWay::kDurable) {
        std::filesystem::remove_all(dir);
        o.durability.dir = dir;
      }
      o.provenance = way == LoadWay::kProvenance;
      auto e = std::make_unique<Engine>(o);
      // Symbols interned up front, so that a load charges only its
      // relations' bytes.
      for (int i = 0; i < 50; ++i) e->Sym("s" + std::to_string(i));
      const size_t base = e->tracked_memory_bytes();
      Rng rng(seed * 7919);
      auto load = [&](const std::vector<EdbRow>& rows, bool text) {
        switch (way) {
          case LoadWay::kPerRow:
            for (const EdbRow& r : rows) {
              ASSERT_TRUE(
                  e->AddFact(kEdbPreds[r.pred].first, ValuesOf(*e, r)).ok());
            }
            break;
          case LoadWay::kText:
            if (text) {
              ASSERT_TRUE(e->LoadProgram(TextOf(rows)).ok());
              break;
            }
            [[fallthrough]];
          case LoadWay::kOneCall:
          case LoadWay::kDurable:
          case LoadWay::kProvenance:
            ASSERT_TRUE(AddInChunks(*e, rows, rng, nullptr).ok());
            break;
          case LoadWay::kChunks:
            ASSERT_TRUE(AddInChunks(*e, rows, rng, [](Rng& r) {
                          return static_cast<size_t>(1 + r.NextBounded(40));
                        }).ok());
            break;
        }
        EXPECT_EQ(e->tracked_memory_bytes() - base, RelationBytes(*e));
      };
      load(first, /*text=*/true);
      ASSERT_TRUE(
          e->RetractFact(kEdbPreds[gone.pred].first, ValuesOf(*e, gone)).ok());
      load(second, /*text=*/false);
      if (way == LoadWay::kDurable) {
        // Closed and reopened: the rows come back through WAL replay.
        e.reset();
        e = std::make_unique<Engine>(o);
        ASSERT_TRUE(e->durability_status().ok());
        std::filesystem::remove_all(dir);
      }
      if (way == LoadWay::kProvenance) {
        for (const auto& [name, arity] : kEdbPreds) {
          const Relation* r = e->Find(name, arity);
          ASSERT_NE(r, nullptr);
          for (RowId row = 0; row < r->size(); ++row) {
            EXPECT_EQ(r->ProvenanceOf(row).rule_index, Relation::kEdbRule);
          }
        }
      }
      if (way == LoadWay::kPerRow) {
        want = Relations(*e);
      } else {
        EXPECT_EQ(Relations(*e), want);
      }
    }
  }
}

TEST(FactLoad, AddFactsFromTheSameRelationAddsNothing) {
  Engine e;
  std::vector<Value> rows;
  for (int64_t i = 0; i < 1000; ++i) {
    rows.insert(rows.end(), {Value::Int(i), Value::Int(i * i)});
  }
  ASSERT_TRUE(e.AddFacts("sq", 2, rows).ok());
  const Relation* rel = e.Find("sq", 2);
  ASSERT_NE(rel, nullptr);
  // The relation is at an exact fit, so reserving for these rows moves
  // the storage they point into.
  auto own = [rel] {
    return std::span<const Value>(rel->Row(0).data(), 2 * rel->size());
  };
  ASSERT_TRUE(e.AddFacts("sq", 2, own()).ok());
  ASSERT_TRUE(e.AddFacts("sq", 2, own().subspan(200, 600)).ok());
  const auto got = e.Query("sq", 2);
  ASSERT_EQ(got.size(), 1000u);
  for (int64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(got[i], (std::vector<Value>{Value::Int(i), Value::Int(i * i)}));
  }
}

TEST(FactLoad, AddFactsRejectsRaggedRowsAndLateCalls) {
  Engine e;
  const std::vector<Value> five(5, Value::Int(1));
  EXPECT_EQ(e.AddFacts("p", 2, five).ToString(),
            "InvalidArgument: AddFacts: 5 values are not a whole number of "
            "rows of arity 2");
  EXPECT_EQ(e.AddFacts("p", 0, {}).ToString(),
            "InvalidArgument: AddFacts: 0 values are not a whole number of "
            "rows of arity 0");
  EXPECT_EQ(e.Find("p", 2), nullptr);
  ASSERT_TRUE(e.AddFacts("p", 5, five).ok());
  ASSERT_TRUE(e.LoadProgram("q(X) <- p(X, _, _, _, _).").ok());
  ASSERT_TRUE(e.Run().ok());
  EXPECT_EQ(e.AddFacts("p", 5, five).ToString(),
            "InvalidArgument: cannot add facts after Run");
  EXPECT_EQ(e.Query("q", 1).size(), 1u);
}

TEST(FactLoad, AllocFaultsInAddFactsLeaveAPrefix) {
  // Three single rows, then 20k rows (every 7th a repeat), swept over
  // every growth with an armed "alloc" probe: a stop leaves a prefix of
  // the rows, and retrying the stopped call completes the same load.
  std::vector<Value> batch;
  std::vector<std::vector<Value>> want, want_batch;
  for (int64_t i = 0; i < 20000; ++i) {
    const int64_t k = i % 7 == 6 ? i - 6 : i;
    batch.insert(batch.end(), {Value::Int(k), Value::Int(-k)});
    if (k == i) want_batch.push_back({Value::Int(k), Value::Int(-k)});
  }
  for (int64_t i = 0; i < 3; ++i) want.push_back({Value::Int(-1 - i)});
  auto is_prefix = [](const std::vector<std::vector<Value>>& got,
                      const std::vector<std::vector<Value>>& all) {
    return got.size() <= all.size() &&
           std::equal(got.begin(), got.end(), all.begin());
  };
  for (int provenance = 0; provenance < 2; ++provenance) {
    int stops = 0;
    for (int k = 1;; ++k) {
      SCOPED_TRACE("alloc@" + std::to_string(k));
      EngineOptions o;
      o.faults = "alloc@" + std::to_string(k);
      o.provenance = provenance == 1;
      Engine e(o);
      bool stopped = false;
      auto step = [&](auto call, auto check_prefix) {
        const Status st = call();
        if (st.ok()) return;
        EXPECT_EQ(st.code(), StatusCode::kOutOfMemory) << st.ToString();
        stopped = true;
        check_prefix();
        EXPECT_TRUE(call().ok());
      };
      for (int64_t i = 0; i < 3; ++i) {
        step([&] { return e.AddFact("one", {Value::Int(-1 - i)}); },
             [&] { EXPECT_TRUE(is_prefix(e.Query("one", 1), want)); });
      }
      step([&] { return e.AddFacts("two", 2, batch); },
           [&] { EXPECT_TRUE(is_prefix(e.Query("two", 2), want_batch)); });
      EXPECT_EQ(e.Query("one", 1), want);
      EXPECT_EQ(e.Query("two", 2), want_batch);
      if (o.provenance) {
        // Every row is annotated as asserted, the one whose insert
        // tripped the probe included.
        for (const char* pred : {"one", "two"}) {
          const Relation* r = e.Find(pred, pred[0] == 'o' ? 1 : 2);
          for (RowId row = 0; row < r->size(); ++row) {
            EXPECT_EQ(r->ProvenanceOf(row).rule_index, Relation::kEdbRule)
                << pred << " row " << row;
          }
        }
      }
      if (!stopped) break;
      ++stops;
    }
    EXPECT_GE(stops, 3);
  }
}

TEST(FactLoad, AddFactsAllocatesPerCallNotPerRow) {
  std::vector<Value> rows;
  for (int64_t i = 0; i < 100000; ++i) {
    rows.insert(rows.end(), {Value::Int(i), Value::Int(i % 1000),
                             Value::Int(i % 7)});
  }
  Engine e;
  size_t before = g_allocations;
  ASSERT_TRUE(e.AddFacts("g", 3, rows).ok());
  EXPECT_LT(g_allocations - before, 100u);
  EXPECT_EQ(e.Find("g", 3)->size(), 100000u);
  // A braced row allocates nothing either, whatever the predicate's
  // name: only the relation's growth does.
  const std::string name = "a_predicate_name_longer_than_any_inline_string";
  before = g_allocations;
  for (int64_t i = 0; i < 100000; ++i) {
    ASSERT_TRUE(e.AddFact(name, {Value::Int(i), Value::Int(-i)}).ok());
  }
  EXPECT_LT(g_allocations - before, 200u);
  EXPECT_EQ(e.Find(name, 2)->size(), 100000u);
}

}  // namespace
}  // namespace gdlog
