// Tests for register-cone chunking and AIG conversion.
#include <gtest/gtest.h>

#include <unordered_set>

#include "expr/expr.hpp"
#include "netlist/aig.hpp"
#include "netlist/cone.hpp"
#include "netlist/netlist.hpp"
#include "rtlgen/generator.hpp"
#include "rtlgen/hierarchy.hpp"
#include "util/rng.hpp"

namespace nettag {
namespace {

// Two-register pipeline:
//   n1 = AND2(a, b); r1 = DFF(n1)
//   n2 = XOR2(r1, c); n3 = INV(n2); r2 = DFF(n3)
Netlist pipeline() {
  Netlist nl("pipe");
  const GateId a = nl.add_port("a");
  const GateId b = nl.add_port("b");
  const GateId c = nl.add_port("c");
  const GateId n1 = nl.add_gate(CellType::kAnd2, "n1", {a, b});
  const GateId r1 = nl.add_gate(CellType::kDff, "r1", {n1});
  nl.gate(r1).is_state_reg = true;
  const GateId n2 = nl.add_gate(CellType::kXor2, "n2", {r1, c});
  const GateId n3 = nl.add_gate(CellType::kInv, "n3", {n2});
  const GateId r2 = nl.add_gate(CellType::kDff, "r2", {n3});
  nl.mark_output(r2);
  return nl;
}

// True if the netlist contains only AIG-legal cell types.
bool is_aig(const Netlist& nl) {
  for (const Gate& g : nl.gates()) {
    switch (g.type) {
      case CellType::kPort:
      case CellType::kConst0:
      case CellType::kConst1:
      case CellType::kDff:
      case CellType::kInv:
      case CellType::kAnd2:
        break;
      default:
        return false;
    }
  }
  return true;
}

TEST(Cone, OneConePerRegister) {
  Netlist nl = pipeline();
  const auto cones = extract_register_cones(nl);
  ASSERT_EQ(cones.size(), 2u);
}

TEST(Cone, BoundariesBecomePorts) {
  Netlist nl = pipeline();
  const RegisterCone rc = extract_cone(nl, nl.find("r2"));
  // r2's cone: boundary {r1, c}, logic {n2, n3}, register r2.
  const Netlist& cone = rc.cone;
  EXPECT_EQ(cone.gate(cone.find("r1")).type, CellType::kPort);
  EXPECT_EQ(cone.gate(cone.find("c")).type, CellType::kPort);
  EXPECT_EQ(cone.gate(cone.find("n2")).type, CellType::kXor2);
  EXPECT_EQ(cone.gate(cone.find("n3")).type, CellType::kInv);
  EXPECT_EQ(cone.gate(rc.cone_register).type, CellType::kDff);
  EXPECT_TRUE(cone.gate(rc.cone_register).is_primary_output);
  EXPECT_EQ(cone.size(), 5u);
  cone.validate();
}

TEST(Cone, ConeDoesNotCrossRegisters) {
  Netlist nl = pipeline();
  const RegisterCone rc = extract_cone(nl, nl.find("r2"));
  // n1 / a / b belong to r1's cone and must not appear in r2's cone.
  EXPECT_EQ(rc.cone.find("n1"), kNoGate);
  EXPECT_EQ(rc.cone.find("a"), kNoGate);
}

TEST(Cone, StateFlagAndMappingPreserved) {
  Netlist nl = pipeline();
  const RegisterCone rc = extract_cone(nl, nl.find("r1"));
  EXPECT_TRUE(rc.cone.gate(rc.cone_register).is_state_reg);
  EXPECT_EQ(rc.to_parent.at(rc.cone_register), nl.find("r1"));
  // Every cone gate maps back to a parent gate with the same name.
  for (const Gate& g : rc.cone.gates()) {
    const GateId parent = rc.to_parent.at(g.id);
    EXPECT_EQ(nl.gate(parent).name, g.name);
  }
}

TEST(Cone, TransitionFunctionPreserved) {
  // The cone's DFF input must compute the same function as in the parent.
  Netlist nl = pipeline();
  const RegisterCone rc = extract_cone(nl, nl.find("r2"));
  const ExprPtr parent_fn =
      khop_expression(nl, nl.gate(nl.find("r2")).fanins[0], 10);
  const ExprPtr cone_fn =
      khop_expression(rc.cone, rc.cone.gate(rc.cone_register).fanins[0], 10);
  EXPECT_TRUE(semantically_equal(parent_fn, cone_fn));
}

TEST(Cone, MaxGatesCapsConeSize) {
  // Deep inverter chain into a register; cap must bound interior size.
  Netlist nl("deep");
  GateId prev = nl.add_port("in");
  for (int i = 0; i < 50; ++i) {
    prev = nl.add_gate(CellType::kInv, "inv" + std::to_string(i), {prev});
  }
  nl.add_gate(CellType::kDff, "r", {prev});
  const RegisterCone rc = extract_cone(nl, nl.find("r"), 10);
  // 10 interior gates + boundary port + register + possible extra = small.
  EXPECT_LE(rc.cone.size(), 14u);
  rc.cone.validate();
}

TEST(Cone, DirectPortToRegister) {
  Netlist nl("direct");
  const GateId a = nl.add_port("a");
  nl.add_gate(CellType::kDff, "r", {a});
  const RegisterCone rc = extract_cone(nl, nl.find("r"));
  EXPECT_EQ(rc.cone.size(), 2u);
  rc.cone.validate();
}

// Cones extracted with the parent's shared topological positions (as
// extract_register_cones and embed_circuit do) equal per-register
// extraction, and their interior gates follow the parent's topo_order().
TEST(Cone, SharedTopoOrderMatchesPerRegisterExtraction) {
  std::vector<Netlist> designs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    designs.push_back(generate_design(benchmark_families()[seed - 1], rng,
                                      "flat" + std::to_string(seed))
                          .netlist);
  }
  HierarchyOptions ho;
  ho.levels = 2;
  ho.min_blocks_per_level = 2;
  ho.max_blocks_per_level = 2;
  ho.shared_blocks = 1;
  Rng hrng(9);
  designs.push_back(
      generate_hierarchical_design(family_profile("chipyard"), ho, hrng, "hier")
          .netlist);
  for (const Netlist& nl : designs) {
    const std::vector<GateId> order = nl.topo_order();
    for (const std::size_t cap : {std::size_t{0}, std::size_t{40}}) {
      const std::vector<RegisterCone> shared = extract_register_cones(nl, cap);
      const std::vector<GateId> regs = nl.registers();
      ASSERT_EQ(shared.size(), regs.size());
      for (std::size_t r = 0; r < regs.size(); ++r) {
        const RegisterCone single = extract_cone(nl, regs[r], cap);
        const RegisterCone& s = shared[r];
        ASSERT_EQ(s.cone.size(), single.cone.size()) << nl.name();
        EXPECT_EQ(s.register_id, single.register_id);
        EXPECT_EQ(s.cone_register, single.cone_register);
        EXPECT_EQ(s.to_parent, single.to_parent);
        for (const Gate& g : s.cone.gates()) {
          const Gate& h = single.cone.gate(g.id);
          EXPECT_EQ(g.name, h.name);
          EXPECT_EQ(g.type, h.type);
          EXPECT_EQ(g.fanins, h.fanins);
        }
        // Interior gates: exactly the parent's topological order restricted
        // to the cone's logic.
        std::vector<GateId> interior, expected;
        std::unordered_set<GateId> logic;
        for (const Gate& g : s.cone.gates()) {
          if (g.type == CellType::kPort || g.id == s.cone_register) continue;
          interior.push_back(s.to_parent.at(g.id));
          logic.insert(interior.back());
        }
        for (GateId id : order) {
          if (logic.count(id)) expected.push_back(id);
        }
        EXPECT_EQ(interior, expected) << s.cone.name();
      }
    }
  }
}

TEST(Aig, OnlyAigCells) {
  Netlist nl = pipeline();
  const AigResult res = to_aig(nl);
  EXPECT_TRUE(is_aig(res.aig));
  EXPECT_FALSE(is_aig(nl));  // original has XOR2
  res.aig.validate();
}

TEST(Aig, FunctionPreservedUnderSimulation) {
  Rng rng(42);
  Netlist nl = pipeline();
  const AigResult res = to_aig(nl);
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<bool> src_orig(nl.size(), false);
    std::vector<bool> src_aig(res.aig.size(), false);
    for (const Gate& g : nl.gates()) {
      if (g.type == CellType::kPort || g.type == CellType::kDff) {
        const bool v = rng.chance(0.5);
        src_orig[static_cast<std::size_t>(g.id)] = v;
        src_aig[static_cast<std::size_t>(res.node_of.at(g.id))] = v;
      }
    }
    const auto vo = simulate(nl, src_orig);
    const auto va = simulate(res.aig, src_aig);
    for (const Gate& g : nl.gates()) {
      if (g.type == CellType::kPort) continue;
      // Compare combinational outputs (DFF Q pins were forced equal above).
      if (g.type == CellType::kDff) continue;
      EXPECT_EQ(vo[static_cast<std::size_t>(g.id)],
                va[static_cast<std::size_t>(res.node_of.at(g.id))])
          << g.name;
    }
  }
}

TEST(Aig, LabelsPropagate) {
  Netlist nl("lbl");
  const GateId a = nl.add_port("a");
  const GateId b = nl.add_port("b");
  const GateId x = nl.add_gate(CellType::kXor2, "x", {a, b});
  nl.gate(x).rtl_block = "add";
  const AigResult res = to_aig(nl);
  // Every derived node of x carries the "add" label.
  int labeled = 0;
  for (const Gate& g : res.aig.gates()) {
    if (g.rtl_block == "add") ++labeled;
  }
  EXPECT_GE(labeled, 3);  // xor decomposes into >= 3 and/inv nodes
}

TEST(Aig, ComplexCellsDecomposeCorrectly) {
  // Exhaustive check for every logic cell: build 1-gate netlist, convert,
  // compare all input combinations.
  for (int t = 0; t < kNumCellTypes; ++t) {
    const CellInfo& c = cell_info(static_cast<CellType>(t));
    if (c.type == CellType::kPort || c.type == CellType::kDff ||
        c.type == CellType::kConst0 || c.type == CellType::kConst1) {
      continue;
    }
    Netlist nl("one");
    std::vector<GateId> ins;
    for (int i = 0; i < c.num_inputs; ++i) {
      ins.push_back(nl.add_port("i" + std::to_string(i)));
    }
    const GateId g = nl.add_gate(c.type, "g", ins);
    nl.mark_output(g);
    const AigResult res = to_aig(nl);
    for (int mask = 0; mask < (1 << c.num_inputs); ++mask) {
      std::vector<bool> src_orig(nl.size(), false);
      std::vector<bool> src_aig(res.aig.size(), false);
      for (int j = 0; j < c.num_inputs; ++j) {
        const bool v = (mask >> j) & 1;
        src_orig[static_cast<std::size_t>(ins[static_cast<std::size_t>(j)])] = v;
        src_aig[static_cast<std::size_t>(
            res.node_of.at(ins[static_cast<std::size_t>(j)]))] = v;
      }
      const auto vo = simulate(nl, src_orig);
      const auto va = simulate(res.aig, src_aig);
      EXPECT_EQ(vo[static_cast<std::size_t>(g)],
                va[static_cast<std::size_t>(res.node_of.at(g))])
          << c.name << " mask=" << mask;
    }
  }
}

}  // namespace
}  // namespace nettag
