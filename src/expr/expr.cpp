#include "expr/expr.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <stdexcept>

namespace nettag {

std::size_t Expr::size() const {
  std::size_t n = 1;
  for (const auto& c : children_) n += c->size();
  return n;
}

std::size_t Expr::depth() const {
  std::size_t d = 0;
  for (const auto& c : children_) d = std::max(d, c->depth());
  return d + 1;
}

ExprPtr Expr::constant(bool value) {
  return ExprPtr(new Expr(value ? ExprKind::kConst1 : ExprKind::kConst0, {}, {}));
}

ExprPtr Expr::var(std::string name) {
  return ExprPtr(new Expr(ExprKind::kVar, std::move(name), {}));
}

ExprPtr Expr::lnot(ExprPtr a) {
  return ExprPtr(new Expr(ExprKind::kNot, {}, {std::move(a)}));
}

ExprPtr Expr::nary(ExprKind kind, std::vector<ExprPtr> kids) {
  if (kids.empty()) throw std::invalid_argument("n-ary expr needs children");
  if (kids.size() == 1) return kids.front();
  return ExprPtr(new Expr(kind, {}, std::move(kids)));
}

ExprPtr Expr::land(std::vector<ExprPtr> kids) {
  return nary(ExprKind::kAnd, std::move(kids));
}
ExprPtr Expr::lor(std::vector<ExprPtr> kids) {
  return nary(ExprKind::kOr, std::move(kids));
}
ExprPtr Expr::lxor(std::vector<ExprPtr> kids) {
  return nary(ExprKind::kXor, std::move(kids));
}

bool eval(const ExprPtr& e, const Assignment& a) {
  switch (e->kind()) {
    case ExprKind::kConst0:
      return false;
    case ExprKind::kConst1:
      return true;
    case ExprKind::kVar: {
      auto it = a.find(e->var_name());
      return it != a.end() && it->second;
    }
    case ExprKind::kNot:
      return !eval(e->children()[0], a);
    case ExprKind::kAnd:
      for (const auto& c : e->children())
        if (!eval(c, a)) return false;
      return true;
    case ExprKind::kOr:
      for (const auto& c : e->children())
        if (eval(c, a)) return true;
      return false;
    case ExprKind::kXor: {
      bool acc = false;
      for (const auto& c : e->children()) acc ^= eval(c, a);
      return acc;
    }
  }
  return false;  // unreachable
}

namespace {
void collect_support(const ExprPtr& e, std::set<std::string>& out) {
  if (e->kind() == ExprKind::kVar) {
    out.insert(e->var_name());
    return;
  }
  for (const auto& c : e->children()) collect_support(c, out);
}
}  // namespace

std::vector<std::string> support(const ExprPtr& e) {
  std::set<std::string> s;
  collect_support(e, s);
  return {s.begin(), s.end()};
}

namespace {
void print(const ExprPtr& e, std::string& out) {
  switch (e->kind()) {
    case ExprKind::kConst0:
      out += '0';
      return;
    case ExprKind::kConst1:
      out += '1';
      return;
    case ExprKind::kVar:
      out += e->var_name();
      return;
    case ExprKind::kNot:
      // N-ary children print their own parentheses, and vars/consts/NOTs
      // bind tighter than '!', so no extra parens are ever needed.
      out += '!';
      print(e->children()[0], out);
      return;
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kXor: {
      const char op = e->kind() == ExprKind::kAnd   ? '&'
                      : e->kind() == ExprKind::kOr ? '|'
                                                   : '^';
      out += '(';
      for (std::size_t i = 0; i < e->children().size(); ++i) {
        if (i) out += op;
        print(e->children()[i], out);
      }
      out += ')';
      return;
    }
  }
}
}  // namespace

std::string to_string(const ExprPtr& e) {
  std::string out;
  out.reserve(e->size() * 3);
  print(e, out);
  return out;
}

namespace {

constexpr int kSemanticSamples = 192;
constexpr int kExactSupportLimit = 12;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Signature relative to an explicit variable ordering, so that two
// expressions are compared over their *combined* support.
std::uint64_t signature_over(const ExprPtr& e,
                             const std::vector<std::string>& vars) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  if (vars.size() <= kExactSupportLimit) {
    const std::size_t rows = std::size_t{1} << vars.size();
    Assignment a;
    std::uint64_t word = 0;
    for (std::size_t row = 0; row < rows; ++row) {
      for (std::size_t j = 0; j < vars.size(); ++j) a[vars[j]] = (row >> j) & 1u;
      word = (word << 1) | static_cast<std::uint64_t>(eval(e, a));
      if ((row & 63u) == 63u || row + 1 == rows) {
        h = mix(h, word);
        word = 0;
      }
    }
    h = mix(h, vars.size());
    return h;
  }
  // Sampled signature: assignments derived deterministically from the
  // variable names, so the same combined support yields the same samples.
  Assignment a;
  std::uint64_t word = 0;
  for (int s = 0; s < kSemanticSamples; ++s) {
    for (std::size_t j = 0; j < vars.size(); ++j) {
      const std::uint64_t bits =
          mix(fnv1a(vars[j]), static_cast<std::uint64_t>(s) * 0x2545F4914F6CDD1Dull);
      a[vars[j]] = bits & 1u;
    }
    word = (word << 1) | static_cast<std::uint64_t>(eval(e, a));
    if ((s & 63) == 63 || s + 1 == kSemanticSamples) {
      h = mix(h, word);
      word = 0;
    }
  }
  return h;
}

}  // namespace

bool semantically_equal(const ExprPtr& a, const ExprPtr& b) {
  std::set<std::string> both;
  collect_support(a, both);
  collect_support(b, both);
  const std::vector<std::string> vars(both.begin(), both.end());
  return signature_over(a, vars) == signature_over(b, vars);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  ExprPtr parse() {
    ExprPtr e = parse_or();
    skip_ws();
    if (pos_ != text_.size()) {
      throw std::invalid_argument("parse_expr: trailing input at " +
                                  std::to_string(pos_));
    }
    return e;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool accept(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  ExprPtr parse_or() {
    std::vector<ExprPtr> kids{parse_xor()};
    while (accept('|')) kids.push_back(parse_xor());
    return Expr::lor(std::move(kids));
  }

  ExprPtr parse_xor() {
    std::vector<ExprPtr> kids{parse_and()};
    while (accept('^')) kids.push_back(parse_and());
    return Expr::lxor(std::move(kids));
  }

  ExprPtr parse_and() {
    std::vector<ExprPtr> kids{parse_unary()};
    while (accept('&')) kids.push_back(parse_unary());
    return Expr::land(std::move(kids));
  }

  // Every '(' and '!' opens one nesting level (one more recursion).
  void enter_level() {
    if (++depth_ > kMaxExprNesting) {
      throw std::invalid_argument("parse_expr: nesting deeper than " +
                                  std::to_string(kMaxExprNesting) +
                                  " levels at byte " + std::to_string(pos_ - 1));
    }
  }

  ExprPtr parse_unary() {
    if (!accept('!')) return parse_atom();
    enter_level();
    ExprPtr e = Expr::lnot(parse_unary());
    --depth_;
    return e;
  }

  ExprPtr parse_atom() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::invalid_argument("parse_expr: unexpected end");
    const char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      enter_level();
      ExprPtr e = parse_or();
      if (!accept(')')) throw std::invalid_argument("parse_expr: missing ')'");
      --depth_;
      return e;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_' || text_[pos_] == '[' || text_[pos_] == ']')) {
        ++pos_;
      }
      return Expr::var(text_.substr(start, pos_ - start));
    }
    if (c == '0' || c == '1') {
      ++pos_;
      return Expr::constant(c == '1');
    }
    throw std::invalid_argument(std::string("parse_expr: unexpected char '") + c + "'");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< enclosing '(' groups and '!' prefixes
};

}  // namespace

ExprPtr parse_expr(const std::string& text) { return Parser(text).parse(); }

}  // namespace nettag
