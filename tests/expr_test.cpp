// Unit tests for the Boolean expression engine (src/expr).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "expr/expr.hpp"

namespace nettag {
namespace {

TEST(Expr, ConstantsEvaluate) {
  EXPECT_FALSE(eval(Expr::constant(false), {}));
  EXPECT_TRUE(eval(Expr::constant(true), {}));
}

TEST(Expr, VarLookupDefaultsFalse) {
  auto a = Expr::var("a");
  EXPECT_FALSE(eval(a, {}));
  EXPECT_TRUE(eval(a, {{"a", true}}));
  EXPECT_FALSE(eval(a, {{"a", false}}));
}

TEST(Expr, NotAndOrXorSemantics) {
  auto a = Expr::var("a");
  auto b = Expr::var("b");
  auto land = Expr::land(a, b);
  auto lor = Expr::lor(a, b);
  auto lxor = Expr::lxor(a, b);
  auto lnot = Expr::lnot(a);
  for (bool va : {false, true}) {
    for (bool vb : {false, true}) {
      Assignment asg{{"a", va}, {"b", vb}};
      EXPECT_EQ(eval(land, asg), va && vb);
      EXPECT_EQ(eval(lor, asg), va || vb);
      EXPECT_EQ(eval(lxor, asg), va != vb);
      EXPECT_EQ(eval(lnot, asg), !va);
    }
  }
}

TEST(Expr, NaryOperators) {
  auto e = Expr::land({Expr::var("x"), Expr::var("y"), Expr::var("z")});
  EXPECT_TRUE(eval(e, {{"x", true}, {"y", true}, {"z", true}}));
  EXPECT_FALSE(eval(e, {{"x", true}, {"y", false}, {"z", true}}));
  auto x3 = Expr::lxor({Expr::var("x"), Expr::var("y"), Expr::var("z")});
  EXPECT_TRUE(eval(x3, {{"x", true}, {"y", true}, {"z", true}}));
  EXPECT_FALSE(eval(x3, {{"x", true}, {"y", true}, {"z", false}}));
}

TEST(Expr, SingleChildNaryUnwraps) {
  auto a = Expr::var("a");
  auto e = Expr::land(std::vector<ExprPtr>{a});
  EXPECT_EQ(e->kind(), ExprKind::kVar);
}

TEST(Expr, SupportIsSortedAndUnique) {
  auto e = Expr::lor(Expr::land(Expr::var("b"), Expr::var("a")),
                     Expr::lnot(Expr::var("b")));
  const auto s = support(e);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], "a");
  EXPECT_EQ(s[1], "b");
}

TEST(Expr, ToStringMatchesPaperStyle) {
  // Paper example: U3 = !((R1^R2)|!R2)
  auto e = Expr::lnot(
      Expr::lor(Expr::lxor(Expr::var("R1"), Expr::var("R2")),
                Expr::lnot(Expr::var("R2"))));
  EXPECT_EQ(to_string(e), "!((R1^R2)|!R2)");
}

TEST(Expr, ToStringNary) {
  auto e = Expr::land({Expr::var("a"), Expr::var("b"), Expr::var("c")});
  EXPECT_EQ(to_string(e), "(a&b&c)");
}

TEST(Expr, SizeAndDepth) {
  auto e = Expr::lnot(Expr::land(Expr::var("a"), Expr::var("b")));
  EXPECT_EQ(e->size(), 4u);
  EXPECT_EQ(e->depth(), 3u);
}

TEST(Expr, TruthTableXor) {
  auto e = Expr::lxor(Expr::var("a"), Expr::var("b"));
  ASSERT_EQ(support(e), (std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(eval(e, {{"a", false}, {"b", false}}));
  EXPECT_TRUE(eval(e, {{"a", true}, {"b", false}}));
  EXPECT_TRUE(eval(e, {{"a", false}, {"b", true}}));
  EXPECT_FALSE(eval(e, {{"a", true}, {"b", true}}));
}

TEST(Expr, SemanticEqualityDeMorgan) {
  auto a = Expr::var("a");
  auto b = Expr::var("b");
  auto lhs = Expr::lnot(Expr::land(a, b));
  auto rhs = Expr::lor(Expr::lnot(a), Expr::lnot(b));
  EXPECT_TRUE(semantically_equal(lhs, rhs));
}

TEST(Expr, SemanticInequalityAndVsOr) {
  auto a = Expr::var("a");
  auto b = Expr::var("b");
  EXPECT_FALSE(semantically_equal(Expr::land(a, b), Expr::lor(a, b)));
}

TEST(Expr, SemanticEqualityDifferentSupportNames) {
  // x and y are different functions even though each is a single variable.
  EXPECT_FALSE(semantically_equal(Expr::var("x"), Expr::var("y")));
  EXPECT_TRUE(semantically_equal(Expr::var("x"), Expr::var("x")));
}

TEST(Expr, SemanticEqualityLargeSupportSampled) {
  // 16 variables: exceeds the exact truth-table limit, exercises sampling.
  std::vector<ExprPtr> vars;
  for (int i = 0; i < 16; ++i) vars.push_back(Expr::var("v" + std::to_string(i)));
  auto lhs = Expr::lnot(Expr::land(vars));
  std::vector<ExprPtr> negs;
  for (const auto& v : vars) negs.push_back(Expr::lnot(v));
  auto rhs = Expr::lor(negs);
  EXPECT_TRUE(semantically_equal(lhs, rhs));
  EXPECT_FALSE(semantically_equal(lhs, Expr::land(vars)));
}

TEST(ExprParser, RoundTrip) {
  const char* cases[] = {
      "a", "!a", "(a&b)", "(a|b|c)", "(a^b)", "!((R1^R2)|!R2)",
      "((a&b)|(c&d))", "!!a", "(a&(b|c))", "0", "1", "(x[3]&y[0])",
  };
  for (const char* text : cases) {
    auto e = parse_expr(text);
    EXPECT_EQ(to_string(e), text) << text;
  }
}

TEST(ExprParser, Precedence) {
  // '|' lowest, then '^', then '&', then '!'.
  auto e = parse_expr("a|b^c&!d");
  // Equivalent explicit form:
  auto expected = parse_expr("(a|(b^(c&!d)))");
  EXPECT_TRUE(semantically_equal(e, expected));
}

TEST(ExprParser, Whitespace) {
  auto e = parse_expr("  ( a & b ) | ! c ");
  EXPECT_TRUE(semantically_equal(e, parse_expr("(a&b)|!c")));
}

TEST(ExprParser, MalformedThrows) {
  EXPECT_THROW(parse_expr(""), std::invalid_argument);
  EXPECT_THROW(parse_expr("(a&b"), std::invalid_argument);
  EXPECT_THROW(parse_expr("a&&b"), std::invalid_argument);
  EXPECT_THROW(parse_expr("a b"), std::invalid_argument);
  EXPECT_THROW(parse_expr("&a"), std::invalid_argument);
}

TEST(Expr, SignatureStableAcrossCalls) {
  auto e = parse_expr("!((R1^R2)|!R2)");
  EXPECT_TRUE(semantically_equal(e, parse_expr("!((R1^R2)|!R2)")));
}

// The parser recurses once per '(' group and '!' prefix; nesting beyond
// kMaxExprNesting must throw (naming the byte offset) instead of
// overflowing the stack, and nesting at the limit must still parse.
TEST(Expr, ParseRejectsDeepNesting) {
  const auto throws_at = [](const std::string& text, std::size_t offset) {
    try {
      parse_expr(text);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what()).find("at byte " + std::to_string(offset)) !=
             std::string::npos;
    }
    return false;
  };
  const std::size_t limit = kMaxExprNesting;
  EXPECT_TRUE(throws_at(std::string(100000, '(') + "a" + std::string(100000, ')'),
                        limit));
  EXPECT_TRUE(throws_at(std::string(1000000, '!') + "a", limit));
  EXPECT_TRUE(throws_at(std::string(limit + 1, '(') + "a" + std::string(limit + 1, ')'),
                        limit));
  // At the limit, in every form: parentheses, negations, and a mix.
  const ExprPtr parens =
      parse_expr(std::string(limit, '(') + "a" + std::string(limit, ')'));
  EXPECT_EQ(to_string(parens), "a");
  const ExprPtr nots = parse_expr(std::string(limit, '!') + "a");
  EXPECT_EQ(nots->depth(), limit + 1);
  std::string mixed;
  for (std::size_t i = 0; i < limit / 2; ++i) mixed += "!(b&";
  mixed += "a";
  for (std::size_t i = 0; i < limit / 2; ++i) mixed += ")";
  EXPECT_EQ(to_string(parse_expr(mixed)), mixed);
  // Depth is per nesting path, not a count of '(' in the text.
  std::string wide;
  for (std::size_t i = 0; i < 2 * limit; ++i) wide += i ? "|(a&b)" : "(a&b)";
  EXPECT_NO_THROW(parse_expr(wide));
}

}  // namespace
}  // namespace nettag
