// Tests for BDD-based netlist equivalence checking, the exact oracle for
// logic_rewrite, whose rewrites must preserve function.
#include <gtest/gtest.h>

#include "netlist/equiv.hpp"
#include "rtlgen/generator.hpp"
#include "rtlgen/optimize.hpp"

namespace nettag {
namespace {

TEST(Equiv, IdenticalNetlistsEquivalent) {
  Rng rng(3);
  const Netlist nl =
      generate_design(family_profile("opencores"), rng, "eq1").netlist;
  const EquivResult res = check_equivalence(nl, nl);
  EXPECT_TRUE(res.equivalent) << res.mismatch << res.error;
  EXPECT_GT(res.checkpoints, 0u);
}

TEST(Equiv, RewrittenNetlistEquivalent) {
  Rng rng(4);
  const Netlist nl =
      generate_design(family_profile("itc99"), rng, "eq2").netlist;
  const Netlist rw = cleanup(logic_rewrite(nl, rng, 0.6));
  const EquivResult res = check_equivalence(nl, rw);
  EXPECT_TRUE(res.equivalent) << "mismatch at " << res.mismatch << res.error;
}

TEST(Equiv, BrokenNetlistDetected) {
  Rng rng(5);
  Netlist a("a");
  const GateId x = a.add_port("x");
  const GateId y = a.add_port("y");
  const GateId g = a.add_gate(CellType::kAnd2, "g", {x, y});
  a.add_gate(CellType::kDff, "r", {g});

  Netlist b("b");
  const GateId x2 = b.add_port("x");
  const GateId y2 = b.add_port("y");
  const GateId g2 = b.add_gate(CellType::kOr2, "g", {x2, y2});  // wrong gate
  b.add_gate(CellType::kDff, "r", {g2});

  const EquivResult res = check_equivalence(a, b);
  EXPECT_FALSE(res.equivalent);
  EXPECT_EQ(res.mismatch, "r");
}

TEST(Equiv, RegisterSetMismatchReported) {
  Netlist a("a");
  const GateId x = a.add_port("x");
  a.add_gate(CellType::kDff, "r1", {x});
  Netlist b("b");
  const GateId x2 = b.add_port("x");
  b.add_gate(CellType::kDff, "r2", {x2});
  const EquivResult res = check_equivalence(a, b);
  EXPECT_FALSE(res.equivalent);
  EXPECT_FALSE(res.error.empty());
}

}  // namespace
}  // namespace nettag
