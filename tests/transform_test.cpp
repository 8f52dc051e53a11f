// Tests for equivalence-preserving Boolean rewrites (Objective #1 machinery).
#include <gtest/gtest.h>

#include <set>

#include "expr/expr.hpp"
#include "expr/transform.hpp"
#include "expr_mutant.hpp"
#include "util/rng.hpp"

namespace nettag {
namespace {

// Each rule's name, which names its PreservesSemantics instance.
std::string rule_name(RewriteRule rule) {
  switch (rule) {
    case RewriteRule::kDeMorganExpand: return "demorgan_expand";
    case RewriteRule::kDeMorganFold: return "demorgan_fold";
    case RewriteRule::kDoubleNegInsert: return "double_neg_insert";
    case RewriteRule::kDoubleNegRemove: return "double_neg_remove";
    case RewriteRule::kCommutative: return "commutative";
    case RewriteRule::kAssociativeGroup: return "associative_group";
    case RewriteRule::kAssociativeFlatten: return "associative_flatten";
    case RewriteRule::kDistribute: return "distribute";
    case RewriteRule::kXorExpand: return "xor_expand";
    case RewriteRule::kIdempotent: return "idempotent";
    case RewriteRule::kIdentityConst: return "identity_const";
  }
  return "unknown";
}

ExprPtr sample_expr(Rng& rng, int depth) {
  if (depth == 0 || rng.chance(0.25)) {
    return Expr::var("x" + std::to_string(rng.uniform_int(0, 4)));
  }
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return Expr::lnot(sample_expr(rng, depth - 1));
    case 1:
      return Expr::land(sample_expr(rng, depth - 1), sample_expr(rng, depth - 1));
    case 2:
      return Expr::lor(sample_expr(rng, depth - 1), sample_expr(rng, depth - 1));
    default:
      return Expr::lxor(sample_expr(rng, depth - 1), sample_expr(rng, depth - 1));
  }
}

// Property: every individual rule preserves the Boolean function on random
// expressions. Parameterized over all rules.
class RewriteRuleProperty : public ::testing::TestWithParam<RewriteRule> {};

TEST_P(RewriteRuleProperty, PreservesSemantics) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int trial = 0; trial < 40; ++trial) {
    ExprPtr e = sample_expr(rng, 4);
    ExprPtr rewritten = apply_rule(e, GetParam(), rng);
    ASSERT_TRUE(semantically_equal(e, rewritten))
        << rule_name(GetParam()) << ": " << to_string(e) << " -> "
        << to_string(rewritten);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, RewriteRuleProperty, ::testing::ValuesIn(all_rewrite_rules()),
    [](const ::testing::TestParamInfo<RewriteRule>& info) {
      return rule_name(info.param);
    });

TEST(Transform, DeMorganExpandChangesText) {
  Rng rng(1);
  auto e = parse_expr("!(a&b)");
  auto r = apply_rule(e, RewriteRule::kDeMorganExpand, rng);
  EXPECT_EQ(to_string(r), "(!a|!b)");
}

TEST(Transform, DeMorganFold) {
  Rng rng(2);
  auto e = parse_expr("(!a&!b)");
  auto r = apply_rule(e, RewriteRule::kDeMorganFold, rng);
  EXPECT_EQ(to_string(r), "!(a|b)");
}

TEST(Transform, DoubleNegRemove) {
  Rng rng(3);
  auto e = parse_expr("!!a");
  auto r = apply_rule(e, RewriteRule::kDoubleNegRemove, rng);
  EXPECT_EQ(to_string(r), "a");
}

TEST(Transform, XorExpand) {
  Rng rng(4);
  auto e = parse_expr("(a^b)");
  auto r = apply_rule(e, RewriteRule::kXorExpand, rng);
  EXPECT_TRUE(semantically_equal(e, r));
  EXPECT_EQ(to_string(r), "((a&!b)|(!a&b))");
}

TEST(Transform, InapplicableRuleReturnsOriginal) {
  Rng rng(5);
  auto e = parse_expr("a");
  auto r = apply_rule(e, RewriteRule::kDeMorganExpand, rng);
  EXPECT_EQ(r.get(), e.get());
}

TEST(Transform, RandomEquivalentPreservesSemanticsManySteps) {
  Rng rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    ExprPtr e = sample_expr(rng, 4);
    ExprPtr r = random_equivalent(e, rng, 8);
    ASSERT_TRUE(semantically_equal(e, r))
        << to_string(e) << " vs " << to_string(r);
  }
}

TEST(Transform, RandomEquivalentUsuallyChangesText) {
  Rng rng(7);
  int changed = 0;
  const int trials = 50;
  for (int trial = 0; trial < trials; ++trial) {
    ExprPtr e = sample_expr(rng, 4);
    ExprPtr r = random_equivalent(e, rng, 4);
    if (to_string(e) != to_string(r)) ++changed;
  }
  // Positive pairs must be textually distinct most of the time, otherwise
  // contrastive learning degenerates.
  EXPECT_GT(changed, trials * 3 / 4);
}

TEST(Transform, RandomNonequivalentActuallyDiffers) {
  Rng rng(8);
  for (int trial = 0; trial < 30; ++trial) {
    ExprPtr e = sample_expr(rng, 3);
    ExprPtr m = random_nonequivalent(e, rng);
    if (!m) continue;  // rare: constant-like expression
    EXPECT_FALSE(semantically_equal(e, m));
  }
}

TEST(Transform, RuleNamesUnique) {
  std::set<std::string> names;
  for (RewriteRule r : all_rewrite_rules()) names.insert(rule_name(r));
  EXPECT_EQ(names.size(), all_rewrite_rules().size());
}

}  // namespace
}  // namespace nettag
