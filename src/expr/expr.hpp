// Boolean symbolic expression engine.
//
// This replaces the paper's use of PySMT: it provides the symbolic logic
// expressions that annotate each netlist gate in the text-attributed graph
// (TAG) format, plus the machinery needed by pre-training Objective #1
// (equivalence-preserving transforms live in transform.hpp).
//
// Expressions are immutable DAG nodes shared via shared_ptr, so k-hop cone
// extraction over large netlists reuses subexpressions instead of copying.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace nettag {

enum class ExprKind : std::uint8_t {
  kConst0,
  kConst1,
  kVar,
  kNot,
  kAnd,  ///< n-ary (>= 2 children)
  kOr,   ///< n-ary (>= 2 children)
  kXor,  ///< n-ary (>= 2 children)
};

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// One immutable Boolean expression node.
class Expr {
 public:
  ExprKind kind() const { return kind_; }
  const std::string& var_name() const { return var_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  /// Total node count (with DAG sharing counted once per occurrence in the
  /// tree view — i.e. tree size, which is what the token statistics measure).
  std::size_t size() const;

  /// Longest root-to-leaf path length (leaf = depth 1).
  std::size_t depth() const;

  // Factory functions. N-ary factories require >= 1 child; a single child is
  // returned unwrapped for and/or/xor.
  static ExprPtr constant(bool value);
  static ExprPtr var(std::string name);
  static ExprPtr lnot(ExprPtr a);
  static ExprPtr land(std::vector<ExprPtr> kids);
  static ExprPtr lor(std::vector<ExprPtr> kids);
  static ExprPtr lxor(std::vector<ExprPtr> kids);
  static ExprPtr land(ExprPtr a, ExprPtr b) { return land({std::move(a), std::move(b)}); }
  static ExprPtr lor(ExprPtr a, ExprPtr b) { return lor({std::move(a), std::move(b)}); }
  static ExprPtr lxor(ExprPtr a, ExprPtr b) { return lxor({std::move(a), std::move(b)}); }

 private:
  Expr(ExprKind kind, std::string var, std::vector<ExprPtr> kids)
      : kind_(kind), var_(std::move(var)), children_(std::move(kids)) {}

  static ExprPtr nary(ExprKind kind, std::vector<ExprPtr> kids);

  ExprKind kind_;
  std::string var_;
  std::vector<ExprPtr> children_;
};

/// Variable assignment for evaluation; missing variables default to false.
using Assignment = std::unordered_map<std::string, bool>;

/// Evaluates the expression under the given assignment.
bool eval(const ExprPtr& e, const Assignment& a);

/// Sorted, de-duplicated list of variable names appearing in the expression.
std::vector<std::string> support(const ExprPtr& e);

/// Renders the expression in the paper's text style, e.g. "!((R1^R2)|!R2)".
/// N-ary operators are parenthesized as one group: "(a&b&c)".
std::string to_string(const ExprPtr& e);

/// True when the two expressions compute the same function of their combined
/// support: a hash of the exact truth table when the support is small,
/// otherwise of the outputs under deterministic pseudo-random assignments
/// (unequal functions collide with negligible probability).
bool semantically_equal(const ExprPtr& a, const ExprPtr& b);

/// Deepest nesting parse_expr accepts: the number of '(' groups and '!'
/// prefixes enclosing any one atom. The parser recurses once per level, so
/// this bounds its stack use (and the depth of the tree it builds) on text
/// read from corpus shards or lint input. Generated expressions nest far
/// less deeply: over the generated corpora, 2-hop expressions reach 6
/// levels and their random_equivalent rewrites 11.
constexpr int kMaxExprNesting = 512;

/// Parses the textual format produced by to_string(). Grammar (precedence
/// low->high): or ('|'), xor ('^'), and ('&'), not ('!'), atom
/// (identifier | '0' | '1' | '(' expr ')'). Throws std::invalid_argument on
/// malformed input, including nesting deeper than kMaxExprNesting (the
/// message names the byte offset).
ExprPtr parse_expr(const std::string& text);

}  // namespace nettag
