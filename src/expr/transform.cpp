#include "expr/transform.hpp"

#include <functional>
#include <string>

#include "analysis/check.hpp"

namespace nettag {

namespace {

// Collects every node of the tree in preorder. Index 0 is the root.
void collect_nodes(const ExprPtr& e, std::vector<ExprPtr>& out) {
  out.push_back(e);
  for (const auto& c : e->children()) collect_nodes(c, out);
}

// Rebuilds the tree with the node at preorder index `target` replaced by
// `replacement`. `cursor` threads the preorder position.
ExprPtr replace_at(const ExprPtr& e, std::size_t target, const ExprPtr& replacement,
                   std::size_t& cursor) {
  const std::size_t my_index = cursor++;
  if (my_index == target) return replacement;
  if (e->children().empty()) return e;
  std::vector<ExprPtr> kids;
  kids.reserve(e->children().size());
  bool changed = false;
  for (const auto& c : e->children()) {
    ExprPtr nc = replace_at(c, target, replacement, cursor);
    changed = changed || nc != c;
    kids.push_back(std::move(nc));
  }
  if (!changed) return e;
  switch (e->kind()) {
    case ExprKind::kNot:
      return Expr::lnot(kids[0]);
    case ExprKind::kAnd:
      return Expr::land(std::move(kids));
    case ExprKind::kOr:
      return Expr::lor(std::move(kids));
    case ExprKind::kXor:
      return Expr::lxor(std::move(kids));
    default:
      return e;  // leaves have no children; unreachable
  }
}

ExprPtr rebuild_with(const ExprPtr& root, std::size_t target, const ExprPtr& node) {
  std::size_t cursor = 0;
  return replace_at(root, target, node, cursor);
}

bool is_nary(const ExprPtr& e) {
  return e->kind() == ExprKind::kAnd || e->kind() == ExprKind::kOr ||
         e->kind() == ExprKind::kXor;
}

ExprPtr make_same(ExprKind kind, std::vector<ExprPtr> kids) {
  NETTAG_CHECK(kind == ExprKind::kAnd || kind == ExprKind::kOr ||
                   kind == ExprKind::kXor,
               "make_same: expression kind " +
                   std::to_string(static_cast<int>(kind)) +
                   " is not and/or/xor");
  switch (kind) {
    case ExprKind::kAnd:
      return Expr::land(std::move(kids));
    case ExprKind::kOr:
      return Expr::lor(std::move(kids));
    default:
      return Expr::lxor(std::move(kids));
  }
}

// Tries to apply the rule to this specific node; returns nullptr if the rule
// does not match here.
ExprPtr apply_here(const ExprPtr& e, RewriteRule rule, Rng& rng) {
  switch (rule) {
    case RewriteRule::kDeMorganExpand: {
      if (e->kind() != ExprKind::kNot) return nullptr;
      const ExprPtr& c = e->children()[0];
      if (c->kind() != ExprKind::kAnd && c->kind() != ExprKind::kOr) return nullptr;
      std::vector<ExprPtr> kids;
      kids.reserve(c->children().size());
      for (const auto& k : c->children()) kids.push_back(Expr::lnot(k));
      return c->kind() == ExprKind::kAnd ? Expr::lor(std::move(kids))
                                         : Expr::land(std::move(kids));
    }
    case RewriteRule::kDeMorganFold: {
      if (e->kind() != ExprKind::kAnd && e->kind() != ExprKind::kOr) return nullptr;
      for (const auto& k : e->children()) {
        if (k->kind() != ExprKind::kNot) return nullptr;
      }
      std::vector<ExprPtr> kids;
      kids.reserve(e->children().size());
      for (const auto& k : e->children()) kids.push_back(k->children()[0]);
      return Expr::lnot(e->kind() == ExprKind::kAnd ? Expr::lor(std::move(kids))
                                                    : Expr::land(std::move(kids)));
    }
    case RewriteRule::kDoubleNegInsert:
      return Expr::lnot(Expr::lnot(e));
    case RewriteRule::kDoubleNegRemove: {
      if (e->kind() != ExprKind::kNot) return nullptr;
      const ExprPtr& c = e->children()[0];
      if (c->kind() != ExprKind::kNot) return nullptr;
      return c->children()[0];
    }
    case RewriteRule::kCommutative: {
      if (!is_nary(e) || e->children().size() < 2) return nullptr;
      std::vector<ExprPtr> kids = e->children();
      rng.shuffle(kids);
      return make_same(e->kind(), std::move(kids));
    }
    case RewriteRule::kAssociativeGroup: {
      if (!is_nary(e) || e->children().size() < 3) return nullptr;
      // Group the first two children into a nested node of the same kind.
      std::vector<ExprPtr> kids = e->children();
      ExprPtr pair = make_same(e->kind(), {kids[0], kids[1]});
      std::vector<ExprPtr> rest{pair};
      rest.insert(rest.end(), kids.begin() + 2, kids.end());
      return make_same(e->kind(), std::move(rest));
    }
    case RewriteRule::kAssociativeFlatten: {
      if (!is_nary(e)) return nullptr;
      bool has_nested = false;
      std::vector<ExprPtr> flat;
      for (const auto& k : e->children()) {
        if (k->kind() == e->kind()) {
          has_nested = true;
          for (const auto& g : k->children()) flat.push_back(g);
        } else {
          flat.push_back(k);
        }
      }
      if (!has_nested) return nullptr;
      return make_same(e->kind(), std::move(flat));
    }
    case RewriteRule::kDistribute: {
      // a & (b|c) -> (a&b)|(a&c); also the dual with & and | swapped.
      if (e->kind() != ExprKind::kAnd && e->kind() != ExprKind::kOr) return nullptr;
      const ExprKind inner_kind =
          e->kind() == ExprKind::kAnd ? ExprKind::kOr : ExprKind::kAnd;
      // Find a child of the inner kind to distribute over.
      int pick = -1;
      for (std::size_t i = 0; i < e->children().size(); ++i) {
        if (e->children()[i]->kind() == inner_kind) {
          pick = static_cast<int>(i);
          break;
        }
      }
      if (pick < 0 || e->children().size() < 2) return nullptr;
      // Rest = conjunction (resp. disjunction) of remaining children.
      std::vector<ExprPtr> rest;
      for (std::size_t i = 0; i < e->children().size(); ++i) {
        if (static_cast<int>(i) != pick) rest.push_back(e->children()[i]);
      }
      const ExprPtr rest_node =
          rest.size() == 1 ? rest[0] : make_same(e->kind(), rest);
      std::vector<ExprPtr> terms;
      for (const auto& inner : e->children()[pick]->children()) {
        terms.push_back(make_same(e->kind(), {rest_node, inner}));
      }
      return make_same(inner_kind, std::move(terms));
    }
    case RewriteRule::kXorExpand: {
      if (e->kind() != ExprKind::kXor || e->children().size() != 2) return nullptr;
      const ExprPtr& a = e->children()[0];
      const ExprPtr& b = e->children()[1];
      return Expr::lor(Expr::land(a, Expr::lnot(b)), Expr::land(Expr::lnot(a), b));
    }
    case RewriteRule::kIdempotent: {
      if (e->kind() == ExprKind::kXor) return nullptr;  // a^a == 0, not a
      return rng.chance(0.5) ? Expr::land(e, e) : Expr::lor(e, e);
    }
    case RewriteRule::kIdentityConst:
      return rng.chance(0.5) ? Expr::lor(e, Expr::constant(false))
                             : Expr::land(e, Expr::constant(true));
  }
  return nullptr;
}

}  // namespace

const std::vector<RewriteRule>& all_rewrite_rules() {
  static const std::vector<RewriteRule> rules = {
      RewriteRule::kDeMorganExpand,    RewriteRule::kDeMorganFold,
      RewriteRule::kDoubleNegInsert,   RewriteRule::kDoubleNegRemove,
      RewriteRule::kCommutative,       RewriteRule::kAssociativeGroup,
      RewriteRule::kAssociativeFlatten, RewriteRule::kDistribute,
      RewriteRule::kXorExpand,         RewriteRule::kIdempotent,
      RewriteRule::kIdentityConst,
  };
  return rules;
}

ExprPtr apply_rule(const ExprPtr& e, RewriteRule rule, Rng& rng) {
  std::vector<ExprPtr> nodes;
  collect_nodes(e, nodes);
  // Try nodes in random order until one accepts the rule.
  std::vector<std::size_t> order(nodes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  for (std::size_t idx : order) {
    if (ExprPtr repl = apply_here(nodes[idx], rule, rng)) {
      return rebuild_with(e, idx, repl);
    }
  }
  return e;
}

ExprPtr random_equivalent(const ExprPtr& e, Rng& rng, int steps) {
  ExprPtr cur = e;
  const auto& rules = all_rewrite_rules();
  for (int s = 0; s < steps; ++s) {
    cur = apply_rule(cur, rules[rng.index(rules.size())], rng);
  }
  return cur;
}

}  // namespace nettag
