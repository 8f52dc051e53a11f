#include "expr/bdd.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "analysis/check.hpp"

namespace nettag {

namespace {

constexpr int kTerminalVar = INT_MAX;

/// Exact packing of (a, b, c) into 64 bits: 20 + 22 + 22. Collision-free as
/// long as variable count < 2^20 and node count < 2^22 (checked), so the
/// unique table keeps BDDs canonical.
std::uint64_t key3(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  NETTAG_CHECK(a < (1u << 20) || a == static_cast<std::uint32_t>(kTerminalVar),
               "BddManager: variable " + std::to_string(a) +
                   " past the 2^20 the unique-table key holds");
  NETTAG_CHECK(b < (1u << 22) && c < (1u << 22),
               "BddManager: node " + std::to_string(std::max(b, c)) +
                   " past the 2^22 the unique-table key holds");
  const std::uint64_t av = a == static_cast<std::uint32_t>(kTerminalVar)
                               ? ((1u << 20) - 1)
                               : a;
  return (av << 44) | (static_cast<std::uint64_t>(b) << 22) | c;
}

}  // namespace

BddManager::BddManager() {
  nodes_.push_back({kTerminalVar, kFalse, kFalse});  // 0: false
  nodes_.push_back({kTerminalVar, kTrue, kTrue});    // 1: true
}

int BddManager::var_index(const std::string& name) {
  auto it = var_index_.find(name);
  if (it != var_index_.end()) return it->second;
  const int index = static_cast<int>(var_names_.size());
  var_names_.push_back(name);
  var_index_.emplace(name, index);
  return index;
}

BddRef BddManager::make_node(int var, BddRef lo, BddRef hi) {
  if (lo == hi) return lo;  // redundant test elimination
  const std::uint64_t key = key3(static_cast<std::uint32_t>(var), lo, hi);
  auto it = unique_.find(key);
  if (it != unique_.end()) return it->second;
  const BddRef ref = static_cast<BddRef>(nodes_.size());
  nodes_.push_back({var, lo, hi});
  unique_[key] = ref;
  return ref;
}

BddRef BddManager::var(const std::string& name) {
  const int index = var_index(name);
  return make_node(index, kFalse, kTrue);
}

BddRef BddManager::ite(BddRef f, BddRef g, BddRef h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  const std::uint64_t key = key3(f, g, h);
  auto it = ite_cache_.find(key);
  if (it != ite_cache_.end()) return it->second;

  // Top variable among the three.
  int top = kTerminalVar;
  for (BddRef r : {f, g, h}) {
    top = std::min(top, nodes_[r].var);
  }
  auto cofactor = [&](BddRef r, bool hi) {
    const Node& n = nodes_[r];
    if (n.var != top) return r;
    return hi ? n.hi : n.lo;
  };
  const BddRef hi = ite(cofactor(f, true), cofactor(g, true), cofactor(h, true));
  const BddRef lo =
      ite(cofactor(f, false), cofactor(g, false), cofactor(h, false));
  const BddRef result = make_node(top, lo, hi);
  ite_cache_[key] = result;
  return result;
}

BddRef BddManager::bdd_not(BddRef a) { return ite(a, kFalse, kTrue); }
BddRef BddManager::bdd_and(BddRef a, BddRef b) { return ite(a, b, kFalse); }
BddRef BddManager::bdd_or(BddRef a, BddRef b) { return ite(a, kTrue, b); }
BddRef BddManager::bdd_xor(BddRef a, BddRef b) {
  return ite(a, bdd_not(b), b);
}

BddRef BddManager::build(const ExprPtr& expr) {
  switch (expr->kind()) {
    case ExprKind::kConst0:
      return kFalse;
    case ExprKind::kConst1:
      return kTrue;
    case ExprKind::kVar:
      return var(expr->var_name());
    case ExprKind::kNot:
      return bdd_not(build(expr->children()[0]));
    case ExprKind::kAnd: {
      BddRef acc = kTrue;
      for (const auto& c : expr->children()) acc = bdd_and(acc, build(c));
      return acc;
    }
    case ExprKind::kOr: {
      BddRef acc = kFalse;
      for (const auto& c : expr->children()) acc = bdd_or(acc, build(c));
      return acc;
    }
    case ExprKind::kXor: {
      BddRef acc = kFalse;
      for (const auto& c : expr->children()) acc = bdd_xor(acc, build(c));
      return acc;
    }
  }
  throw std::invalid_argument("BddManager::build: bad expression kind");
}

bool BddManager::eval(BddRef f, const Assignment& assignment) const {
  while (f != kFalse && f != kTrue) {
    const Node& n = nodes_[f];
    auto it = assignment.find(var_names_[static_cast<std::size_t>(n.var)]);
    const bool v = it != assignment.end() && it->second;
    f = v ? n.hi : n.lo;
  }
  return f == kTrue;
}

double BddManager::sat_count(BddRef f, int num_vars) const {
  // Recursive count with per-call memo; each path skipping k variable
  // levels contributes 2^k assignments.
  std::unordered_map<BddRef, double> memo;
  // counts minterms below variable level `from` assuming f's top var >= from.
  std::function<double(BddRef)> count = [&](BddRef r) -> double {
    if (r == kFalse) return 0.0;
    if (r == kTrue) return 1.0;
    auto it = memo.find(r);
    if (it != memo.end()) return it->second;
    const Node& n = nodes_[r];
    auto level_of = [&](BddRef x) {
      return nodes_[x].var == kTerminalVar ? num_vars : nodes_[x].var;
    };
    const double lo = count(n.lo) *
                      std::pow(2.0, level_of(n.lo) - n.var - 1);
    const double hi = count(n.hi) *
                      std::pow(2.0, level_of(n.hi) - n.var - 1);
    const double total = lo + hi;
    memo[r] = total;
    return total;
  };
  const int top_level = nodes_[f].var == kTerminalVar ? num_vars : nodes_[f].var;
  return count(f) * std::pow(2.0, top_level);
}

bool BddManager::pick_satisfying(BddRef f, Assignment* out) const {
  if (f == kFalse) return false;
  out->clear();
  while (f != kTrue) {
    const Node& n = nodes_[f];
    const std::string& name = var_names_[static_cast<std::size_t>(n.var)];
    if (n.hi != kFalse) {
      (*out)[name] = true;
      f = n.hi;
    } else {
      (*out)[name] = false;
      f = n.lo;
    }
  }
  return true;
}

bool bdd_equal(const ExprPtr& a, const ExprPtr& b) {
  BddManager mgr;
  // Canonical variable order: sorted combined support (first-touch would
  // give different orders for a and b otherwise).
  for (const std::string& v : support(Expr::lor(a, b))) mgr.var_index(v);
  return mgr.build(a) == mgr.build(b);
}

bool bdd_is_tautology(const ExprPtr& e) {
  BddManager mgr;
  return mgr.build(e) == BddManager::kTrue;
}

bool bdd_is_contradiction(const ExprPtr& e) {
  BddManager mgr;
  return mgr.build(e) == BddManager::kFalse;
}

}  // namespace nettag
