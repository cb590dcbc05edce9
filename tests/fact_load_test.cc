// Inline facts are data: the parser turns each ground fact into a row of
// its predicate's batch, and LoadProgram inserts the batches into the
// catalog. These tests pin the rows every fact form yields, the errors
// malformed facts keep, and the allocation profile of bulk fact text.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

#include "api/engine.h"
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

TEST(FactLoad, ScanAndParserYieldTheSameRows) {
  // The same facts twice: in the forms the raw scan takes, and with a
  // spaced minus, an escape and a parenthesized nil, which it leaves to
  // the full parser.
  ValueStore s;
  auto scanned = ParseProgram(&s,
                              "f(1, -2, a, \"b\tc\", nil).\n"
                              "f(x, 0, y, \"\", nil).");
  auto parsed = ParseProgram(&s,
                             "f(1, - 2, a, \"b\\tc\", nil).\n"
                             "f(x, 0, y, \"\", (nil)).");
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(scanned->facts.size(), 1u);
  ASSERT_EQ(parsed->facts.size(), 1u);
  EXPECT_EQ(scanned->facts[0].count, 2u);
  EXPECT_EQ(scanned->facts[0].rows, parsed->facts[0].rows);
  EXPECT_EQ(scanned->facts[0].rows[3], s.MakeSymbol("b\tc"));
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
       "ParseError: unterminated string literal at line 1, column 9"},
      {"g(1152921504606846976).",
       "ParseError: [GD110] integer literal out of range (inline ints "
       "span [-1152921504606846976, 1152921504606846975]) at line 1, "
       "column 22"},
      {"g(-1152921504606846976).",
       "ParseError: [GD110] integer literal out of range (inline ints "
       "span [-1152921504606846976, 1152921504606846975]) at line 1, "
       "column 23"},
      {"g(99999999999999999999).",
       "ParseError: [GD110] integer literal out of range (inline ints "
       "span [-1152921504606846976, 1152921504606846975]) at line 1, "
       "column 23"},
      {"g(1)",
       "ParseError: expected '.' to end rule at line 1, column 5 (found "
       "end of input)"},
      {"g(\"a\\qb\").",
       "ParseError: unknown escape '\\q' at line 1, column 7"},
      {"g(1).\nh(2,\n  3",
       "ParseError: expected ')' to close argument list at line 3, "
       "column 4 (found end of input)"},
      {"g(1 2).",
       "ParseError: expected ')' to close argument list at line 1, "
       "column 5 (found integer)"},
      {"g(1);", "ParseError: unexpected character ';' at line 1, column 6"},
      {"g(1). /* open",
       "ParseError: unterminated block comment at line 1, column 14"},
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

}  // namespace
}  // namespace gdlog
