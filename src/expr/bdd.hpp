// Reduced Ordered Binary Decision Diagrams.
//
// The paper builds symbolic expressions with PySMT, a formal-verification
// toolkit; this BDD engine is the corresponding exact-reasoning substrate on
// our side. It provides canonical representations of Boolean functions, so
// expression equivalence (and netlist output equivalence) can be decided
// *exactly* for supports far beyond the truth-table limit, complementing the
// hash-based semantically_equal() fast path.
//
// Classic implementation: unique table for node hash-consing, memoized ITE.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/expr.hpp"

namespace nettag {

/// Node reference inside a BddManager (0 = false terminal, 1 = true).
using BddRef = std::uint32_t;

/// Manager owning all nodes; BddRefs are only meaningful per-manager.
class BddManager {
 public:
  BddManager();

  static constexpr BddRef kFalse = 0;
  static constexpr BddRef kTrue = 1;

  /// Variable index for a name (created on first use; order = creation
  /// order, so callers control the variable order via first-touch).
  int var_index(const std::string& name);

  /// BDD for a single variable.
  BddRef var(const std::string& name);

  BddRef bdd_not(BddRef a);
  BddRef bdd_and(BddRef a, BddRef b);
  BddRef bdd_or(BddRef a, BddRef b);
  BddRef bdd_xor(BddRef a, BddRef b);
  /// If-then-else: the universal combinator the ops reduce to.
  BddRef ite(BddRef f, BddRef g, BddRef h);

  /// Builds the BDD of an expression (variables by name, first-touch order).
  BddRef build(const ExprPtr& expr);

  /// Evaluates the function under an assignment (missing vars = false).
  bool eval(BddRef f, const Assignment& assignment) const;

  /// Number of minterms over `num_vars` variables (satisfy count), as a
  /// double (exact for < 2^53).
  double sat_count(BddRef f, int num_vars) const;

  /// One satisfying assignment; empty optional-like flag via return:
  /// returns false when f == kFalse.
  bool pick_satisfying(BddRef f, Assignment* out) const;

  /// Total live nodes (terminals included) — growth/regression guard.
  std::size_t num_nodes() const { return nodes_.size(); }

  int num_vars() const { return static_cast<int>(var_names_.size()); }
  const std::string& var_name(int index) const {
    return var_names_[static_cast<std::size_t>(index)];
  }

 private:
  struct Node {
    int var;       ///< variable index; terminals use INT_MAX sentinel
    BddRef lo;     ///< cofactor for var = 0
    BddRef hi;     ///< cofactor for var = 1
  };

  BddRef make_node(int var, BddRef lo, BddRef hi);

  std::vector<Node> nodes_;
  std::vector<std::string> var_names_;
  std::unordered_map<std::string, int> var_index_;
  // Unique table: (var, lo, hi) -> ref.
  std::unordered_map<std::uint64_t, BddRef> unique_;
  // Memoized ITE: (f, g, h) -> ref.
  std::unordered_map<std::uint64_t, BddRef> ite_cache_;
};

/// Exact equivalence of two expressions via shared-manager BDDs. Unlike
/// semantically_equal(), this has no collision probability; use for supports
/// up to a few dozen variables.
bool bdd_equal(const ExprPtr& a, const ExprPtr& b);

/// Exact tautology / contradiction checks.
bool bdd_is_tautology(const ExprPtr& e);
bool bdd_is_contradiction(const ExprPtr& e);

}  // namespace nettag
