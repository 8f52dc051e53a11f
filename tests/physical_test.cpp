// Tests for placement, parasitics, STA, power, area, and the flow driver.
#include <gtest/gtest.h>

#include <cmath>

#include "physical/flow.hpp"
#include "rtlgen/generator.hpp"
#include "netlist_counts.hpp"
#include "util/rng.hpp"

namespace nettag {
namespace {

Netlist sample_design(std::uint64_t seed = 21) {
  Rng rng(seed);
  return generate_design(family_profile("opencores"), rng, "phys_t").netlist;
}

TEST(Placement, AssignsAllCells) {
  Rng rng(1);
  Netlist nl = sample_design();
  Placement pl = place(nl, rng, 2);
  ASSERT_EQ(pl.x.size(), nl.size());
  ASSERT_EQ(pl.y.size(), nl.size());
  for (std::size_t i = 0; i < nl.size(); ++i) {
    EXPECT_TRUE(std::isfinite(pl.x[i]));
    EXPECT_TRUE(std::isfinite(pl.y[i]));
  }
}

TEST(Placement, RefinementReducesWirelength) {
  Netlist nl = sample_design(33);
  Rng r0(9), r1(9);
  const Placement coarse = place(nl, r0, 0);
  const Placement fine = place(nl, r1, 8);
  EXPECT_LE(fine.total_hpwl, coarse.total_hpwl);
}

TEST(Placement, HpwlNonNegative) {
  Rng rng(2);
  Netlist nl = sample_design();
  Placement pl = place(nl, rng, 1);
  for (const Gate& g : nl.gates()) {
    EXPECT_GE(net_hpwl(nl, pl, g.id), 0.0);
  }
}

TEST(Parasitics, LoadsIncludeSinkPins) {
  Rng rng(3);
  Netlist nl("t");
  const GateId a = nl.add_port("a");
  const GateId i1 = nl.add_gate(CellType::kInv, "i1", {a});
  const GateId i2 = nl.add_gate(CellType::kInv, "i2", {a});
  (void)i1;
  (void)i2;
  Placement pl = place(nl, rng, 0);
  Parasitics para = extract_parasitics(nl, pl);
  // Port 'a' drives two INV pins.
  EXPECT_NEAR(para.nets[static_cast<std::size_t>(a)].pin_cap,
              2 * cell_info(CellType::kInv).input_cap, 1e-9);
  EXPECT_GE(para.nets[static_cast<std::size_t>(a)].wire_cap, 0.0);
}

TEST(Sta, ArrivalMonotoneAlongPaths) {
  Rng rng(4);
  Netlist nl = sample_design();
  Placement pl = place(nl, rng, 1);
  Parasitics para = extract_parasitics(nl, pl);
  TimingReport t = run_sta(nl, para, 1.0);
  for (const Gate& g : nl.gates()) {
    if (g.type == CellType::kDff || g.type == CellType::kPort ||
        g.type == CellType::kConst0 || g.type == CellType::kConst1) {
      continue;
    }
    for (GateId f : g.fanins) {
      EXPECT_GT(t.arrival[static_cast<std::size_t>(g.id)],
                t.arrival[static_cast<std::size_t>(f)]);
    }
  }
}

TEST(Sta, SlackDefinedOnlyAtEndpoints) {
  Rng rng(5);
  Netlist nl = sample_design();
  Placement pl = place(nl, rng, 1);
  Parasitics para = extract_parasitics(nl, pl);
  TimingReport t = run_sta(nl, para, 1.0);
  EXPECT_FALSE(t.endpoints.empty());
  for (GateId e : t.endpoints) {
    EXPECT_TRUE(std::isfinite(t.slack[static_cast<std::size_t>(e)]));
    const Gate& g = nl.gate(e);
    EXPECT_TRUE(g.type == CellType::kDff || g.is_primary_output);
  }
}

TEST(Sta, TighterClockLowersSlack) {
  Rng rng(6);
  Netlist nl = sample_design();
  Placement pl = place(nl, rng, 1);
  Parasitics para = extract_parasitics(nl, pl);
  TimingReport loose = run_sta(nl, para, 2.0);
  TimingReport tight = run_sta(nl, para, 0.5);
  for (GateId e : loose.endpoints) {
    EXPECT_NEAR(loose.slack[static_cast<std::size_t>(e)] -
                    tight.slack[static_cast<std::size_t>(e)],
                1.5, 1e-9);
  }
}

TEST(Power, ProbabilitiesAreProbabilities) {
  Rng rng(7);
  Netlist nl = sample_design();
  Placement pl = place(nl, rng, 1);
  Parasitics para = extract_parasitics(nl, pl);
  PowerReport p = run_power(nl, para);
  for (std::size_t i = 0; i < nl.size(); ++i) {
    EXPECT_GE(p.prob[i], 0.0);
    EXPECT_LE(p.prob[i], 1.0);
    EXPECT_GE(p.toggle[i], 0.0);
    EXPECT_LE(p.toggle[i], 1.0);
  }
  EXPECT_GT(p.total(), 0.0);
}

TEST(Power, KnownGateFormulas) {
  // AND of two independent p=0.5 inputs: p_out = 0.25; XOR: p_out = 0.5.
  Rng rng(8);
  Netlist nl("t");
  const GateId a = nl.add_port("a");
  const GateId b = nl.add_port("b");
  const GateId x = nl.add_gate(CellType::kAnd2, "and", {a, b});
  const GateId y = nl.add_gate(CellType::kXor2, "xor", {a, b});
  (void)x;
  (void)y;
  Placement pl = place(nl, rng, 0);
  Parasitics para = extract_parasitics(nl, pl);
  PowerReport p = run_power(nl, para, 0.2, 0.5);
  EXPECT_NEAR(p.prob[static_cast<std::size_t>(nl.find("and"))], 0.25, 1e-9);
  EXPECT_NEAR(p.prob[static_cast<std::size_t>(nl.find("xor"))], 0.5, 1e-9);
  // Exact pairwise toggle: XOR toggles iff exactly one input toggles
  // (2 * 0.2 * 0.8); AND enumerates to 0.18 at p=0.5, t=0.2.
  EXPECT_NEAR(p.toggle[static_cast<std::size_t>(nl.find("xor"))], 0.32, 1e-9);
  EXPECT_NEAR(p.toggle[static_cast<std::size_t>(nl.find("and"))], 0.18, 1e-9);
}

TEST(Power, HigherActivityMorePower) {
  Rng rng(9);
  Netlist nl = sample_design();
  Placement pl = place(nl, rng, 1);
  Parasitics para = extract_parasitics(nl, pl);
  const PowerReport lo = run_power(nl, para, 0.05);
  const PowerReport hi = run_power(nl, para, 0.5);
  EXPECT_GT(hi.dynamic_power, lo.dynamic_power);
  EXPECT_NEAR(hi.leakage_power, lo.leakage_power, 1e-9);
}

TEST(Area, SumsCells) {
  Netlist nl("t");
  nl.add_port("a");
  const GateId g1 = nl.add_gate(CellType::kInv, "i", {0});
  (void)g1;
  AreaReport a = run_area(nl, 0.7);
  EXPECT_NEAR(a.cell_area, cell_info(CellType::kInv).area, 1e-9);
  EXPECT_NEAR(a.total_area, a.cell_area / 0.7, 1e-9);
}

TEST(Flow, EndToEndProducesLabels) {
  Rng rng(10);
  Netlist nl = sample_design();
  PhysicalResult res = run_physical_flow(nl, rng, /*optimize=*/false);
  EXPECT_GT(res.area.total_area, 0.0);
  EXPECT_GT(res.power.total(), 0.0);
  EXPECT_FALSE(res.timing.endpoints.empty());
  EXPECT_GT(res.timing.clock_period, 0.0);
  EXPECT_GT(res.runtime_seconds, 0.0);
  // Auto period leaves 25% margin over the critical path: worst slack is
  // positive but below the margin.
  EXPECT_GT(res.timing.wns, 0.0);
  EXPECT_LT(res.timing.wns, res.timing.clock_period);
}

TEST(Flow, OptimizationChangesMetrics) {
  Rng gen(77), r1(11), r2(11);
  Netlist nl = generate_design(family_profile("chipyard"), gen, "flow_t").netlist;
  PhysicalResult base = run_physical_flow(nl, r1, false);
  PhysicalResult opt = run_physical_flow(nl, r2, true);
  // Optimization restructures the netlist: the cell mix must change, and
  // area must differ measurably.
  EXPECT_NE(type_counts(base.implemented), type_counts(opt.implemented));
  EXPECT_GT(std::abs(base.area.total_area - opt.area.total_area) /
                base.area.total_area,
            0.01);
}

}  // namespace
}  // namespace nettag
