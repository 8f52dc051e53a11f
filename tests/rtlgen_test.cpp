// Tests for the synthesizer, design generator, and optimization passes.
#include <gtest/gtest.h>

#include <string>

#include "analysis/check.hpp"
#include "core/dataset.hpp"
#include "netlist/io.hpp"
#include "rtlgen/generator.hpp"
#include "rtlgen/optimize.hpp"
#include "rtlgen/synthesizer.hpp"
#include "netlist_counts.hpp"
#include "util/rng.hpp"

namespace nettag {
namespace {

// Drives all PORT bits from an integer and reads a bus back as an integer.
std::uint64_t eval_bus(const Netlist& nl, const Bus& bus,
                       const std::vector<std::pair<Bus, std::uint64_t>>& inputs) {
  std::vector<bool> src(nl.size(), false);
  for (const auto& [b, v] : inputs) {
    for (int i = 0; i < b.width(); ++i) {
      src[static_cast<std::size_t>(b.bits[static_cast<std::size_t>(i)])] =
          (v >> i) & 1;
    }
  }
  const auto values = simulate(nl, src);
  std::uint64_t out = 0;
  for (int i = 0; i < bus.width(); ++i) {
    if (values[static_cast<std::size_t>(bus.bits[static_cast<std::size_t>(i)])]) {
      out |= std::uint64_t{1} << i;
    }
  }
  return out;
}

/// Runs `fn`, which must throw CheckError whose message holds `what`.
template <class Fn>
void expect_check_error(Fn fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << "no CheckError for: " << what;
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(Synthesizer, OperandWidthMismatchThrowsNamingBothWidths) {
  Synthesizer syn("t");
  const Bus a = syn.input("a", 4);
  const Bus b = syn.input("b", 3);
  const std::string widths =
      "operand widths differ: " + a.name + " is 4 bits, " + b.name + " is 3";
  expect_check_error([&] { syn.bit_and(a, b); }, "bit_and: " + widths);
  expect_check_error([&] { syn.bit_or(a, b); }, "bit_or: " + widths);
  expect_check_error([&] { syn.bit_xor(a, b); }, "bit_xor: " + widths);
  expect_check_error([&] { syn.add(a, b); }, "add: " + widths);
  expect_check_error([&] { syn.sub(a, b); }, "sub: " + widths);
  expect_check_error([&] { syn.cmp_eq(a, b); }, "cmp_eq: " + widths);
  expect_check_error([&] { syn.cmp_lt(a, b); }, "cmp_lt: " + widths);
  const Bus sel = syn.input("s", 1);
  expect_check_error([&] { syn.mux(a, b, sel); }, "mux: " + widths);
  const Bus sel2 = syn.input("s2", 2);
  expect_check_error([&] { syn.mux(a, a, sel2); },
                     "mux: select " + sel2.name + " is 2 bits, want 1");
}

TEST(Synthesizer, AddComputesSum) {
  Synthesizer syn("t");
  Bus a = syn.input("a", 4);
  Bus b = syn.input("b", 4);
  Bus s = syn.add(a, b);
  for (std::uint64_t x : {0u, 3u, 7u, 15u}) {
    for (std::uint64_t y : {0u, 1u, 9u, 15u}) {
      EXPECT_EQ(eval_bus(syn.netlist(), s, {{a, x}, {b, y}}), (x + y) & 0xF)
          << x << "+" << y;
    }
  }
}

TEST(Synthesizer, SubComputesDifference) {
  Synthesizer syn("t");
  Bus a = syn.input("a", 4);
  Bus b = syn.input("b", 4);
  Bus d = syn.sub(a, b);
  for (std::uint64_t x : {0u, 5u, 12u, 15u}) {
    for (std::uint64_t y : {0u, 2u, 9u, 15u}) {
      EXPECT_EQ(eval_bus(syn.netlist(), d, {{a, x}, {b, y}}), (x - y) & 0xF);
    }
  }
}

TEST(Synthesizer, MulComputesProduct) {
  Synthesizer syn("t");
  Bus a = syn.input("a", 4);
  Bus b = syn.input("b", 4);
  Bus p = syn.mul(a, b);
  for (std::uint64_t x = 0; x < 16; ++x) {
    for (std::uint64_t y = 0; y < 16; ++y) {
      EXPECT_EQ(eval_bus(syn.netlist(), p, {{a, x}, {b, y}}), (x * y) & 0xF)
          << x << "*" << y;
    }
  }
}

TEST(Synthesizer, Comparators) {
  Synthesizer syn("t");
  Bus a = syn.input("a", 3);
  Bus b = syn.input("b", 3);
  Bus eq = syn.cmp_eq(a, b);
  Bus lt = syn.cmp_lt(a, b);
  for (std::uint64_t x = 0; x < 8; ++x) {
    for (std::uint64_t y = 0; y < 8; ++y) {
      EXPECT_EQ(eval_bus(syn.netlist(), eq, {{a, x}, {b, y}}), x == y ? 1u : 0u);
      EXPECT_EQ(eval_bus(syn.netlist(), lt, {{a, x}, {b, y}}), x < y ? 1u : 0u);
    }
  }
}

TEST(Synthesizer, MuxSelects) {
  Synthesizer syn("t");
  Bus a = syn.input("a", 3);
  Bus b = syn.input("b", 3);
  Bus s = syn.input("s", 1);
  Bus m = syn.mux(a, b, s);
  EXPECT_EQ(eval_bus(syn.netlist(), m, {{a, 5}, {b, 2}, {s, 0}}), 5u);
  EXPECT_EQ(eval_bus(syn.netlist(), m, {{a, 5}, {b, 2}, {s, 1}}), 2u);
}

TEST(Synthesizer, ShiftRotateParity) {
  Synthesizer syn("t");
  Bus a = syn.input("a", 4);
  Bus sh = syn.shift_left(a, 2);
  Bus ro = syn.rotate_left(a, 1);
  Bus pa = syn.parity(a);
  EXPECT_EQ(eval_bus(syn.netlist(), sh, {{a, 0b0011}}), 0b1100u);
  EXPECT_EQ(eval_bus(syn.netlist(), ro, {{a, 0b1001}}), 0b0011u);
  EXPECT_EQ(eval_bus(syn.netlist(), pa, {{a, 0b0111}}), 1u);
  EXPECT_EQ(eval_bus(syn.netlist(), pa, {{a, 0b0101}}), 0u);
}

TEST(Synthesizer, DecodePriorityEncode) {
  Synthesizer syn("t");
  Bus a = syn.input("a", 3);
  Bus d = syn.decode(a);
  Bus e = syn.priority_encode(a);
  for (std::uint64_t x = 0; x < 8; ++x) {
    EXPECT_EQ(eval_bus(syn.netlist(), d, {{a, x}}), std::uint64_t{1} << x);
  }
  // priority encode: index of highest set bit.
  EXPECT_EQ(eval_bus(syn.netlist(), e, {{a, 0b100}}), 2u);
  EXPECT_EQ(eval_bus(syn.netlist(), e, {{a, 0b110}}), 2u);
  EXPECT_EQ(eval_bus(syn.netlist(), e, {{a, 0b010}}), 1u);
  EXPECT_EQ(eval_bus(syn.netlist(), e, {{a, 0b001}}), 0u);
}

TEST(Synthesizer, RegBankAndFeedback) {
  Synthesizer syn("t");
  Bus a = syn.input("a", 2);
  Bus q = syn.reg_bank(a, "datapath", false);
  Bus c = syn.reg_feedback(2, "counter", false);
  Bus next = syn.add(c, syn.constant(1, 2));
  syn.connect_reg(c, next);
  syn.mark_outputs(q);
  Netlist nl = syn.take_netlist();
  EXPECT_EQ(nl.registers().size(), 4u);
  // Feedback registers must have non-placeholder fanins after connect.
  for (GateId r : nl.registers()) {
    EXPECT_NE(nl.gate(nl.gate(r).fanins[0]).name, "__fb");
  }
}

TEST(Synthesizer, UnconnectedFeedbackThrows) {
  Synthesizer syn("t");
  syn.reg_feedback(2, "fsm", true);
  EXPECT_THROW(syn.take_netlist(), std::runtime_error);
}

TEST(Synthesizer, LabelsAssigned) {
  Synthesizer syn("t");
  Bus a = syn.input("a", 3);
  Bus b = syn.input("b", 3);
  Bus s = syn.add(a, b);
  Bus m = syn.mul(a, b);
  (void)s;
  (void)m;
  int add_gates = 0, mul_gates = 0;
  for (const Gate& g : syn.netlist().gates()) {
    if (g.rtl_block == "add") ++add_gates;
    if (g.rtl_block == "mul") ++mul_gates;
  }
  EXPECT_GT(add_gates, 0);
  EXPECT_GT(mul_gates, 0);
}

TEST(Synthesizer, RegRtlTracksProvenance) {
  Synthesizer syn("t");
  Bus a = syn.input("alpha", 2);
  Bus b = syn.input("beta", 2);
  Bus s = syn.add(a, b);
  Bus q = syn.reg_bank(s, "datapath", false);
  (void)q;
  const auto& rtl = syn.reg_rtl();
  ASSERT_FALSE(rtl.empty());
  for (const auto& [reg, text] : rtl) {
    EXPECT_NE(text.find("add"), std::string::npos) << reg;
    EXPECT_NE(text.find("input alpha"), std::string::npos);
  }
}

TEST(Synthesizer, RtlTextContainsAllStatements) {
  Synthesizer syn("mydesign");
  Bus a = syn.input("a", 2);
  Bus b = syn.input("b", 2);
  Bus n = syn.bit_and(a, b);
  syn.mark_outputs(n);
  const std::string rtl = syn.rtl_text();
  EXPECT_NE(rtl.find("module mydesign"), std::string::npos);
  EXPECT_NE(rtl.find("input a"), std::string::npos);
  EXPECT_NE(rtl.find("and ( a , b )"), std::string::npos);
  EXPECT_NE(rtl.find("endmodule"), std::string::npos);
}

// --- optimization passes ----------------------------------------------------

// Simulation equivalence on DFF-source + port assignments.
void expect_equivalent(const Netlist& a, const Netlist& b, Rng& rng,
                       int trials = 12) {
  for (int t = 0; t < trials; ++t) {
    std::vector<bool> sa(a.size(), false), sb(b.size(), false);
    for (const Gate& g : a.gates()) {
      if (g.type != CellType::kPort && g.type != CellType::kDff) continue;
      const GateId other = b.find(g.name);
      ASSERT_NE(other, kNoGate) << "missing source " << g.name;
      const bool v = rng.chance(0.5);
      sa[static_cast<std::size_t>(g.id)] = v;
      sb[static_cast<std::size_t>(other)] = v;
    }
    const auto va = simulate(a, sa);
    const auto vb = simulate(b, sb);
    // Compare every register D input and every primary output.
    for (const Gate& g : a.gates()) {
      if (g.type == CellType::kDff) {
        const GateId other = b.find(g.name);
        EXPECT_EQ(va[static_cast<std::size_t>(g.fanins[0])],
                  vb[static_cast<std::size_t>(b.gate(other).fanins[0])])
            << "register " << g.name;
      }
    }
  }
}

TEST(Optimize, CleanupRemovesDeadAndConst) {
  Synthesizer syn("t");
  Bus a = syn.input("a", 3);
  Bus dead = syn.bit_xor(a, a);  // never used downstream
  (void)dead;
  Bus keep = syn.add(a, syn.constant(0, 3));  // adding zero
  Bus q = syn.reg_bank(keep, "datapath", false);
  (void)q;
  Netlist nl = syn.take_netlist();
  Netlist cleaned = cleanup(nl);
  cleaned.validate();
  EXPECT_LT(cleaned.size(), nl.size());
  Rng rng(5);
  expect_equivalent(nl, cleaned, rng);
}

TEST(Optimize, CleanupCollapsesInverterPairs) {
  Netlist nl("t");
  const GateId a = nl.add_port("a");
  const GateId i1 = nl.add_gate(CellType::kInv, "i1", {a});
  const GateId i2 = nl.add_gate(CellType::kInv, "i2", {i1});
  const GateId o = nl.add_gate(CellType::kBuf, "o", {i2});
  nl.mark_output(o);
  Netlist cleaned = cleanup(nl);
  // Everything collapses to the port being the output.
  EXPECT_TRUE(cleaned.gate(cleaned.find("a")).is_primary_output);
  EXPECT_EQ(logic_count(cleaned), 0u);
}

TEST(Optimize, CleanupKeepsAllRegisters) {
  Synthesizer syn("t");
  Bus a = syn.input("a", 2);
  Bus q = syn.reg_bank(a, "datapath", false);  // register unused downstream
  (void)q;
  Netlist nl = syn.take_netlist();
  EXPECT_EQ(cleanup(nl).registers().size(), nl.registers().size());
}

TEST(Optimize, LogicRewritePreservesFunction) {
  Rng rng(11);
  Synthesizer syn("t");
  Bus a = syn.input("a", 4);
  Bus b = syn.input("b", 4);
  Bus s = syn.add(a, b);
  Bus m = syn.mux(s, syn.bit_xor(a, b), syn.cmp_lt(a, b));
  Bus q = syn.reg_bank(m, "datapath", false);
  (void)q;
  Netlist nl = syn.take_netlist();
  for (double intensity : {0.2, 0.6, 1.0}) {
    Netlist rw = logic_rewrite(nl, rng, intensity);
    rw.validate();
    Rng check(77);
    expect_equivalent(nl, rw, check);
  }
}

TEST(Optimize, LogicRewriteDiversifiesCells) {
  Rng rng(13);
  Synthesizer syn("t");
  Bus a = syn.input("a", 4);
  Bus b = syn.input("b", 4);
  Bus q = syn.reg_bank(syn.add(a, b), "datapath", false);
  (void)q;
  Netlist nl = syn.take_netlist();
  Netlist rw = logic_rewrite(nl, rng, 0.9);
  // Heavy rewriting must introduce cell types absent from the ripple adder.
  const auto before = type_counts(nl);
  const auto after = type_counts(rw);
  EXPECT_GT(after[static_cast<std::size_t>(CellType::kNand2)] +
                after[static_cast<std::size_t>(CellType::kNor2)] +
                after[static_cast<std::size_t>(CellType::kInv)],
            before[static_cast<std::size_t>(CellType::kNand2)] +
                before[static_cast<std::size_t>(CellType::kNor2)] +
                before[static_cast<std::size_t>(CellType::kInv)]);
}

TEST(Optimize, InsertBuffersCapsFanout) {
  Netlist nl("t");
  const GateId a = nl.add_port("a");
  for (int i = 0; i < 20; ++i) {
    nl.add_gate(CellType::kInv, "s" + std::to_string(i), {a});
  }
  Netlist buffered = insert_buffers(nl, 4);
  buffered.validate();
  for (const Gate& g : buffered.gates()) {
    EXPECT_LE(g.fanouts.size(), 8u) << g.name;  // drivers split across bufs
  }
  // Original driver now has at most max_fanout sinks + buffers.
  EXPECT_GT(buffered.size(), nl.size());
}

// --- generator ---------------------------------------------------------------

TEST(Generator, FourFamilies) {
  const auto& fams = benchmark_families();
  ASSERT_EQ(fams.size(), 4u);
  EXPECT_EQ(fams[0].name, "itc99");
  EXPECT_EQ(family_profile("chipyard").name, "chipyard");
  EXPECT_THROW(family_profile("nope"), std::invalid_argument);
}

class GeneratorFamily : public ::testing::TestWithParam<std::string> {};

TEST_P(GeneratorFamily, ProducesValidSequentialDesigns) {
  Rng rng(101);
  const FamilyProfile& prof = family_profile(GetParam());
  for (int i = 0; i < 3; ++i) {
    GeneratedDesign d = generate_design(prof, rng, GetParam() + "_x" + std::to_string(i));
    d.netlist.validate();
    EXPECT_GT(d.netlist.registers().size(), 0u);
    EXPECT_GT(logic_count(d.netlist), 10u);
    EXPECT_FALSE(d.rtl_text.empty());
    EXPECT_EQ(d.netlist.source(), GetParam());
    // Every register has RTL cone text.
    for (GateId r : d.netlist.registers()) {
      EXPECT_TRUE(d.reg_rtl.count(d.netlist.gate(r).name))
          << d.netlist.gate(r).name;
    }
    // Labels present on logic gates.
    int labeled = 0, logic = 0;
    for (const Gate& g : d.netlist.gates()) {
      if (gate_class_of(g.type) >= 0) {
        ++logic;
        if (!g.rtl_block.empty()) ++labeled;
      }
    }
    EXPECT_GT(labeled, logic * 9 / 10);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, GeneratorFamily,
                         ::testing::Values("itc99", "opencores", "chipyard",
                                           "vexriscv"));

TEST(Generator, FamilySizeOrdering) {
  // Chipyard designs are larger than OpenCores on average (Table II shape).
  Rng rng(55);
  double oc = 0, cy = 0;
  const int k = 4;
  for (int i = 0; i < k; ++i) {
    oc += static_cast<double>(
        generate_design(family_profile("opencores"), rng, "oc" + std::to_string(i))
            .netlist.size());
    cy += static_cast<double>(
        generate_design(family_profile("chipyard"), rng, "cy" + std::to_string(i))
            .netlist.size());
  }
  EXPECT_GT(cy, oc);
}

TEST(Generator, DeterministicGivenSeed) {
  Rng r1(7), r2(7);
  GeneratedDesign a = generate_design(family_profile("itc99"), r1, "d");
  GeneratedDesign b = generate_design(family_profile("itc99"), r2, "d");
  EXPECT_EQ(netlist_to_string(a.netlist), netlist_to_string(b.netlist));
  EXPECT_EQ(a.rtl_text, b.rtl_text);
}

TEST(Generator, CorpusNaming) {
  Rng rng(3);
  CorpusOptions co;
  co.designs_per_family = 3;
  co.with_physical = false;
  const Corpus corpus = build_corpus(co, rng);
  std::vector<std::string> opencores;
  for (const DesignSample& d : corpus.designs) {
    if (d.gen.netlist.source() == "opencores") {
      opencores.push_back(d.gen.netlist.name());
    }
  }
  ASSERT_EQ(opencores.size(), 3u);
  EXPECT_EQ(opencores[0], "opencores_d0");
  EXPECT_EQ(opencores[2], "opencores_d2");
}

}  // namespace
}  // namespace nettag
