// Unit tests for the lexer and parser, including round-trips through
// the pretty printer.
#include "parser/parser.h"

#include <gtest/gtest.h>

#include "ast/printer.h"
#include "parser/lexer.h"

namespace gdlog {
namespace {

TEST(Lexer, BasicTokens) {
  auto toks = Tokenize("p(X, 42) <- q(X), X != a.");
  ASSERT_TRUE(toks.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : *toks) kinds.push_back(t.kind);
  EXPECT_EQ(kinds.front(), TokenKind::kIdent);
  EXPECT_EQ(kinds.back(), TokenKind::kEof);
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), TokenKind::kArrow),
            kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), TokenKind::kNe),
            kinds.end());
}

TEST(Lexer, ArrowVariants) {
  auto a = Tokenize("<-");
  auto b = Tokenize(":-");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a)[0].kind, TokenKind::kArrow);
  EXPECT_EQ((*b)[0].kind, TokenKind::kArrow);
  auto le = Tokenize("<=");
  ASSERT_TRUE(le.ok());
  EXPECT_EQ((*le)[0].kind, TokenKind::kLe);
}

TEST(Lexer, CommentsSkipped) {
  auto toks = Tokenize(R"(
    % a line comment
    p(1). // another
    /* block
       comment */ q(2).
  )");
  ASSERT_TRUE(toks.ok());
  int idents = 0;
  for (const Token& t : *toks) {
    if (t.kind == TokenKind::kIdent) ++idents;
  }
  EXPECT_EQ(idents, 2);
}

TEST(Lexer, ErrorsCarryPosition) {
  auto toks = Tokenize("p(X) <- q(X)\n  ^ oops.");
  ASSERT_FALSE(toks.ok());
  EXPECT_NE(toks.status().message().find("line 2"), std::string::npos);
}

TEST(Lexer, StringLiterals) {
  auto toks = Tokenize(R"(name("hello \"world\"").)");
  ASSERT_TRUE(toks.ok());
  bool found = false;
  for (const Token& t : *toks) {
    if (t.kind == TokenKind::kString) {
      EXPECT_EQ(t.text, "hello \"world\"");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Parser, FactAndRule) {
  ValueStore store;
  auto prog = ParseProgram(&store, R"(
    edge(1, 2).
    path(X, Y) <- edge(X, Y).
    path(X, Z) <- path(X, Y), edge(Y, Z).
  )");
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  // The fact is a row of edge/2's batch, not a rule; clauses keep their
  // source numbers.
  ASSERT_EQ(prog->facts.size(), 1u);
  EXPECT_EQ(prog->facts[0].predicate, "edge");
  EXPECT_EQ(prog->facts[0].count, 1u);
  EXPECT_EQ(prog->facts[0].rows,
            (std::vector<Value>{Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(prog->facts[0].first_clause, 0u);
  ASSERT_EQ(prog->rules.size(), 2u);
  EXPECT_FALSE(prog->rules[0].is_fact());
  EXPECT_EQ(prog->ClauseOf(0), 1u);
  EXPECT_EQ(prog->ClauseOf(1), 2u);
}

TEST(Parser, MetaGoals) {
  ValueStore store;
  auto rule = ParseRule(&store,
                        "p(X, C, I) <- next(I), q(X, C), least(C, I), "
                        "choice(X, (C, I)).");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_TRUE(rule->has_next());
  EXPECT_TRUE(rule->has_choice());
  EXPECT_TRUE(rule->has_extrema());
}

TEST(Parser, LeastWithoutGroupIsEmptyTuple) {
  ValueStore store;
  auto rule = ParseRule(&store, "m(C) <- g(C), least(C).");
  ASSERT_TRUE(rule.ok());
  const Literal* least = nullptr;
  for (const Literal& l : rule->body) {
    if (l.kind == LiteralKind::kLeast) least = &l;
  }
  ASSERT_NE(least, nullptr);
  EXPECT_TRUE(least->args[1].is_tuple());
  EXPECT_TRUE(least->args[1].args.empty());
}

TEST(Parser, ArithmeticPrecedence) {
  ValueStore store;
  auto rule = ParseRule(&store, "p(X) <- q(A, B, C), X = A + B * C.");
  ASSERT_TRUE(rule.ok());
  const Literal& cmp = rule->body[1];
  ASSERT_EQ(cmp.kind, LiteralKind::kComparison);
  const TermNode& rhs = cmp.args[1];
  EXPECT_EQ(rhs.name, "+");           // + at the top
  EXPECT_EQ(rhs.args[1].name, "*");   // * binds tighter
}

TEST(Parser, NegatedConjunction) {
  ValueStore store;
  auto rule = ParseRule(
      &store, "p(X, I) <- q(X, I), not (r(X, L), L < I).");
  ASSERT_TRUE(rule.ok());
  ASSERT_EQ(rule->body[1].kind, LiteralKind::kNotExists);
  EXPECT_EQ(rule->body[1].body.size(), 2u);
}

TEST(Parser, NegatedSingleAtomStaysAtom) {
  ValueStore store;
  auto rule = ParseRule(&store, "p(X) <- q(X), not (r(X)).");
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->body[1].kind, LiteralKind::kAtom);
  EXPECT_TRUE(rule->body[1].negated);
}

TEST(Parser, AnonymousVariablesRenamedApart) {
  ValueStore store;
  auto rule = ParseRule(&store, "p(X) <- q(_, X, _).");
  ASSERT_TRUE(rule.ok());
  const Literal& q = rule->body[0];
  EXPECT_NE(q.args[0].name, q.args[2].name);
}

TEST(Parser, CompoundTermsAndFunctors) {
  ValueStore store;
  auto rule = ParseRule(&store, "h(t(X, Y), C) <- f(X, Y, C).");
  ASSERT_TRUE(rule.ok());
  EXPECT_TRUE(rule->head.args[0].is_compound());
  EXPECT_EQ(rule->head.args[0].name, "t");
}

TEST(Parser, ErrorsAreParseErrors) {
  ValueStore store;
  for (const char* bad :
       {"p(X <- q(X).", "p(X).extra", "p(X) <- .", "p(X) <- q(X)",
        "<- q(X).", "p(X) <- next(3)."}) {
    auto prog = ParseProgram(&store, bad);
    EXPECT_FALSE(prog.ok()) << bad;
    EXPECT_EQ(prog.status().code(), StatusCode::kParseError) << bad;
  }
}

TEST(Parser, NegativeNumbers) {
  ValueStore store;
  auto prog = ParseProgram(&store, "p(-5).");
  ASSERT_TRUE(prog.ok());
  ASSERT_EQ(prog->facts.size(), 1u);
  EXPECT_EQ(prog->facts[0].rows[0].AsInt(), -5);
}

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, PrintThenReparse) {
  ValueStore store;
  auto prog1 = ParseProgram(&store, GetParam());
  ASSERT_TRUE(prog1.ok()) << prog1.status().ToString();
  const std::string printed1 = ProgramToString(store, *prog1);
  auto prog2 = ParseProgram(&store, printed1);
  ASSERT_TRUE(prog2.ok()) << printed1 << "\n" << prog2.status().ToString();
  EXPECT_EQ(printed1, ProgramToString(store, *prog2));
}

INSTANTIATE_TEST_SUITE_P(
    PaperPrograms, RoundTripTest,
    ::testing::Values(
        // Example 1: course assignment.
        "a_st(St, Crs) <- takes(St, Crs), choice(Crs, St), choice(St, Crs).",
        // Example 4: Prim.
        "prm(nil, a, 0, 0).\n"
        "prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I, "
        "least(C, I), choice(Y, X).\n"
        "new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).",
        // Example 5: sort.
        "sp(nil, 0, 0).\nsp(X, C, I) <- next(I), p(X, C), least(C, I).",
        // Example 6 fragment: Huffman feasibility.
        "feasible(t(X, Y), C, I) <- h(X, C1, J), h(Y, C2, K), "
        "not (subtree(X, L1), L1 < I), not (subtree(Y, L2), L2 < I), "
        "I = max(J, K), X != Y, C = C1 + C2.",
        // Example 7: matching.
        "matching(X, Y, C, I) <- next(I), g(X, Y, C), least(C, I), "
        "choice(Y, X), choice(X, Y).",
        // Arithmetic and comparisons.
        "p(X, Y) <- q(X), Y = X * 3 + 1, Y >= 10, Y != 12."));

}  // namespace
}  // namespace gdlog
