// Tests for the BDD engine: canonicity, ITE algebra, counting, and
// cross-validation against the sampling-based semantic equivalence.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "expr/bdd.hpp"
#include "expr/transform.hpp"
#include "expr_mutant.hpp"
#include "util/rng.hpp"

namespace nettag {
namespace {

TEST(Bdd, Terminals) {
  BddManager mgr;
  EXPECT_EQ(mgr.bdd_and(BddManager::kTrue, BddManager::kFalse), BddManager::kFalse);
  EXPECT_EQ(mgr.bdd_or(BddManager::kTrue, BddManager::kFalse), BddManager::kTrue);
  EXPECT_EQ(mgr.bdd_not(BddManager::kFalse), BddManager::kTrue);
}

TEST(Bdd, VariableSemantics) {
  BddManager mgr;
  const BddRef a = mgr.var("a");
  EXPECT_TRUE(mgr.eval(a, {{"a", true}}));
  EXPECT_FALSE(mgr.eval(a, {{"a", false}}));
  EXPECT_FALSE(mgr.eval(a, {}));  // missing defaults to false
}

TEST(Bdd, CanonicityHashConsing) {
  BddManager mgr;
  const BddRef a = mgr.var("a");
  const BddRef b = mgr.var("b");
  // Same function built two ways must be the same node.
  const BddRef ab1 = mgr.bdd_and(a, b);
  const BddRef ab2 = mgr.bdd_not(mgr.bdd_or(mgr.bdd_not(a), mgr.bdd_not(b)));
  EXPECT_EQ(ab1, ab2);
  // Idempotence: x & x == x.
  EXPECT_EQ(mgr.bdd_and(a, a), a);
  // Double negation.
  EXPECT_EQ(mgr.bdd_not(mgr.bdd_not(ab1)), ab1);
}

TEST(Bdd, IteAlgebra) {
  BddManager mgr;
  const BddRef a = mgr.var("a");
  const BddRef b = mgr.var("b");
  EXPECT_EQ(mgr.ite(a, BddManager::kTrue, BddManager::kFalse), a);
  EXPECT_EQ(mgr.ite(BddManager::kTrue, a, b), a);
  EXPECT_EQ(mgr.ite(BddManager::kFalse, a, b), b);
  EXPECT_EQ(mgr.ite(a, b, b), b);
}

TEST(Bdd, BuildMatchesEval) {
  BddManager mgr;
  const ExprPtr e = parse_expr("!((R1^R2)|!R2)");
  const BddRef f = mgr.build(e);
  for (int mask = 0; mask < 4; ++mask) {
    Assignment asg{{"R1", static_cast<bool>(mask & 1)},
                   {"R2", static_cast<bool>(mask & 2)}};
    EXPECT_EQ(mgr.eval(f, asg), eval(e, asg)) << mask;
  }
}

TEST(Bdd, EqualityDecidesDeMorgan) {
  EXPECT_TRUE(bdd_equal(parse_expr("!(a&b)"), parse_expr("(!a|!b)")));
  EXPECT_FALSE(bdd_equal(parse_expr("(a&b)"), parse_expr("(a|b)")));
  EXPECT_TRUE(bdd_equal(parse_expr("(a^b)"), parse_expr("((a&!b)|(!a&b))")));
}

TEST(Bdd, TautologyContradiction) {
  EXPECT_TRUE(bdd_is_tautology(parse_expr("(a|!a)")));
  EXPECT_TRUE(bdd_is_contradiction(parse_expr("(a&!a)")));
  EXPECT_FALSE(bdd_is_tautology(parse_expr("a")));
  EXPECT_FALSE(bdd_is_contradiction(parse_expr("a")));
}

TEST(Bdd, SatCount) {
  BddManager mgr;
  mgr.var_index("a");
  mgr.var_index("b");
  mgr.var_index("c");
  const BddRef f = mgr.build(parse_expr("(a&b)"));
  // a&b over 3 vars: 2 minterms (c free).
  EXPECT_DOUBLE_EQ(mgr.sat_count(f, 3), 2.0);
  const BddRef x = mgr.build(parse_expr("(a^b^c)"));
  EXPECT_DOUBLE_EQ(mgr.sat_count(x, 3), 4.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(BddManager::kTrue, 3), 8.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(BddManager::kFalse, 3), 0.0);
}

TEST(Bdd, PickSatisfying) {
  BddManager mgr;
  const ExprPtr e = parse_expr("(a&!b&c)");
  const BddRef f = mgr.build(e);
  Assignment asg;
  ASSERT_TRUE(mgr.pick_satisfying(f, &asg));
  EXPECT_TRUE(eval(e, asg));
  Assignment none;
  EXPECT_FALSE(mgr.pick_satisfying(BddManager::kFalse, &none));
}

// Property sweep: BDD equality must agree with the sampling-based
// semantic equivalence on random expression/transform pairs.
class BddVsSemantic : public ::testing::TestWithParam<int> {};

TEST_P(BddVsSemantic, AgreeOnEquivalentPairs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  std::function<ExprPtr(int)> sample = [&](int depth) -> ExprPtr {
    if (depth == 0 || rng.chance(0.3)) {
      return Expr::var("x" + std::to_string(rng.uniform_int(0, 5)));
    }
    switch (rng.uniform_int(0, 3)) {
      case 0: return Expr::lnot(sample(depth - 1));
      case 1: return Expr::land(sample(depth - 1), sample(depth - 1));
      case 2: return Expr::lor(sample(depth - 1), sample(depth - 1));
      default: return Expr::lxor(sample(depth - 1), sample(depth - 1));
    }
  };
  for (int t = 0; t < 15; ++t) {
    const ExprPtr e = sample(4);
    const ExprPtr eq = random_equivalent(e, rng, 4);
    EXPECT_TRUE(bdd_equal(e, eq)) << to_string(e) << " vs " << to_string(eq);
    EXPECT_TRUE(semantically_equal(e, eq));
    const ExprPtr mutant = random_nonequivalent(e, rng);
    if (mutant) {
      EXPECT_FALSE(bdd_equal(e, mutant))
          << to_string(e) << " vs " << to_string(mutant);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddVsSemantic, ::testing::Values(1, 2, 3, 4));

TEST(Bdd, SharingKeepsNodeCountLinearForParity) {
  // Parity of n variables has a linear-size BDD under any order.
  BddManager mgr;
  BddRef acc = BddManager::kFalse;
  const int n = 16;
  for (int i = 0; i < n; ++i) {
    acc = mgr.bdd_xor(acc, mgr.var("v" + std::to_string(i)));
  }
  // The manager hash-conses but does not garbage-collect intermediates, so
  // the bound covers the whole chain of partial parities (quadratic-ish),
  // not just the final linear-size BDD.
  EXPECT_LT(mgr.num_nodes(), static_cast<std::size_t>(n) * n + 64);
  EXPECT_DOUBLE_EQ(mgr.sat_count(acc, n), std::pow(2.0, n - 1));
}

}  // namespace
}  // namespace nettag
