// random_nonequivalent: a seeded hard negative for an expression, which the
// BDD and rewrite tests check their equivalence deciders against.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "expr/expr.hpp"
#include "util/rng.hpp"

namespace nettag {

namespace mutant_detail {

inline void collect_nodes(const ExprPtr& e, std::vector<ExprPtr>& out) {
  out.push_back(e);
  for (const auto& c : e->children()) collect_nodes(c, out);
}

inline bool is_nary(const ExprPtr& e) {
  return e->kind() == ExprKind::kAnd || e->kind() == ExprKind::kOr ||
         e->kind() == ExprKind::kXor;
}

inline ExprPtr make(ExprKind kind, std::vector<ExprPtr> kids) {
  switch (kind) {
    case ExprKind::kNot: return Expr::lnot(kids[0]);
    case ExprKind::kAnd: return Expr::land(std::move(kids));
    case ExprKind::kOr: return Expr::lor(std::move(kids));
    default: return Expr::lxor(std::move(kids));
  }
}

// `e` with the node at preorder index `target` replaced by `node`; `cursor`
// threads the preorder position.
inline ExprPtr replace_at(const ExprPtr& e, std::size_t target,
                          const ExprPtr& node, std::size_t& cursor) {
  if (cursor++ == target) return node;
  if (e->children().empty()) return e;
  std::vector<ExprPtr> kids;
  bool changed = false;
  for (const auto& c : e->children()) {
    kids.push_back(replace_at(c, target, node, cursor));
    changed = changed || kids.back() != c;
  }
  return changed ? make(e->kind(), std::move(kids)) : e;
}

}  // namespace mutant_detail

/// A mutant of `e` with a different function: one random node's operator
/// swapped (and -> or -> xor -> and), or the node negated (a negation
/// removed), drawn again until semantically_equal tells it from `e`.
/// nullptr when `max_tries` draws find none (e.g. for constants).
inline ExprPtr random_nonequivalent(const ExprPtr& e, Rng& rng,
                                    int max_tries = 16) {
  using namespace mutant_detail;
  std::vector<ExprPtr> nodes;
  collect_nodes(e, nodes);
  for (int t = 0; t < max_tries; ++t) {
    const std::size_t idx = rng.index(nodes.size());
    const ExprPtr& n = nodes[idx];
    ExprPtr mutant;
    if (is_nary(n)) {
      const ExprKind kind = n->kind() == ExprKind::kAnd ? ExprKind::kOr
                            : n->kind() == ExprKind::kOr ? ExprKind::kXor
                                                         : ExprKind::kAnd;
      mutant = make(kind, n->children());
    } else {
      mutant = n->kind() == ExprKind::kNot ? n->children()[0] : Expr::lnot(n);
    }
    std::size_t cursor = 0;
    ExprPtr candidate = replace_at(e, idx, mutant, cursor);
    if (!semantically_equal(candidate, e)) return candidate;
  }
  return nullptr;
}

}  // namespace nettag
