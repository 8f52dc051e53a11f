// Equivalence-preserving Boolean rewrites (paper footnote 4: De Morgan,
// distributive, commutative, associative laws, etc.).
//
// Pre-training Objective #1 builds positive pairs for contrastive learning by
// applying a random sequence of these rules to an expression: the rewritten
// text differs but the Boolean function is identical. The same machinery
// drives functionally-equivalent netlist augmentation (Objective #2.2) via
// the logic-rewriting synthesis pass.
#pragma once

#include <vector>

#include "expr/expr.hpp"
#include "util/rng.hpp"

namespace nettag {

/// Identifiers for the individual rewrite rules (exposed for tests and for
/// the ablation benches).
enum class RewriteRule {
  kDeMorganExpand,    ///< !(a&b) -> (!a|!b), !(a|b) -> (!a&!b)
  kDeMorganFold,      ///< (!a|!b) -> !(a&b), (!a&!b) -> !(a|b)
  kDoubleNegInsert,   ///< x -> !!x
  kDoubleNegRemove,   ///< !!x -> x
  kCommutative,       ///< shuffle n-ary children
  kAssociativeGroup,  ///< (a&b&c) -> ((a&b)&c)
  kAssociativeFlatten,///< ((a&b)&c) -> (a&b&c)
  kDistribute,        ///< a&(b|c) -> (a&b)|(a&c)
  kXorExpand,         ///< a^b -> (a&!b)|(!a&b)
  kIdempotent,        ///< a -> (a&a) / (a|a)
  kIdentityConst,     ///< a -> (a|0) / (a&1)
};

/// All rules, in a stable order.
const std::vector<RewriteRule>& all_rewrite_rules();

/// Applies `rule` once at a random applicable position. Returns the original
/// expression unchanged if the rule matches nowhere.
ExprPtr apply_rule(const ExprPtr& e, RewriteRule rule, Rng& rng);

/// Applies `steps` random rules (each drawn uniformly from all_rewrite_rules)
/// at random positions. The result is always functionally equivalent to the
/// input; with high probability its text differs.
ExprPtr random_equivalent(const ExprPtr& e, Rng& rng, int steps = 3);

}  // namespace nettag
