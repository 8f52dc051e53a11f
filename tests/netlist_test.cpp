// Unit tests for the netlist graph, cell library, simulation, k-hop
// expression extraction, and file I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "analysis/check.hpp"
#include "expr/expr.hpp"
#include "netlist/cell_library.hpp"
#include "netlist/io.hpp"
#include "netlist/netlist.hpp"
#include "netlist_counts.hpp"
#include "physical/analysis.hpp"
#include "rtlgen/generator.hpp"
#include "util/rng.hpp"

namespace nettag {
namespace {

// Small reference netlist: the paper's Fig. 3 flavour.
//   U1 = XOR2(R1, R2); U2 = INV(R2); U3 = NOR2(U1, U2)
Netlist paper_example() {
  Netlist nl("fig3");
  const GateId r1 = nl.add_port("R1");
  const GateId r2 = nl.add_port("R2");
  const GateId u1 = nl.add_gate(CellType::kXor2, "U1", {r1, r2});
  const GateId u2 = nl.add_gate(CellType::kInv, "U2", {r2});
  const GateId u3 = nl.add_gate(CellType::kNor2, "U3", {u1, u2});
  nl.mark_output(u3);
  return nl;
}

TEST(CellLibrary, ArityMatchesEnum) {
  EXPECT_EQ(cell_info(CellType::kInv).num_inputs, 1);
  EXPECT_EQ(cell_info(CellType::kNand3).num_inputs, 3);
  EXPECT_EQ(cell_info(CellType::kAoi22).num_inputs, 4);
  EXPECT_EQ(cell_info(CellType::kMux2).num_inputs, 3);
  EXPECT_EQ(cell_info(CellType::kDff).num_inputs, 1);
  EXPECT_EQ(cell_info(CellType::kPort).num_inputs, 0);
}

TEST(CellLibrary, NameRoundTrip) {
  for (int t = 0; t < kNumCellTypes; ++t) {
    const CellInfo& c = cell_info(static_cast<CellType>(t));
    EXPECT_EQ(cell_type_from_name(c.name), c.type);
  }
  EXPECT_EQ(cell_type_from_name("nand2"), CellType::kNand2);  // case-insensitive
  EXPECT_THROW(cell_type_from_name("FOO42"), std::invalid_argument);
}

TEST(CellLibrary, OnlyDffSequential) {
  for (int t = 0; t < kNumCellTypes; ++t) {
    const CellInfo& c = cell_info(static_cast<CellType>(t));
    EXPECT_EQ(c.sequential, c.type == CellType::kDff) << c.name;
  }
}

TEST(CellLibrary, GateClassBijection) {
  std::set<int> classes;
  for (int t = 0; t < kNumCellTypes; ++t) {
    const int cls = gate_class_of(static_cast<CellType>(t));
    if (cls >= 0) {
      EXPECT_LT(cls, num_gate_classes());
      EXPECT_TRUE(classes.insert(cls).second) << "class " << cls << " twice";
    }
  }
  EXPECT_EQ(static_cast<int>(classes.size()), num_gate_classes());
  EXPECT_EQ(gate_class_of(CellType::kPort), -1);
  EXPECT_EQ(gate_class_of(CellType::kDff), -1);
}

// cell_eval must agree with cell_function on every input combination, for
// every cell: the simulator fast path and the symbolic path are the same
// function. Parameterized property test over the library.
class CellSemantics : public ::testing::TestWithParam<CellType> {};

TEST_P(CellSemantics, EvalMatchesFunction) {
  const CellType type = GetParam();
  const int arity = cell_info(type).num_inputs;
  std::vector<ExprPtr> vars;
  for (int i = 0; i < arity; ++i) vars.push_back(Expr::var("i" + std::to_string(i)));
  const ExprPtr fn = cell_function(type, vars);
  for (int mask = 0; mask < (1 << arity); ++mask) {
    std::vector<bool> bits(arity);
    Assignment asg;
    for (int j = 0; j < arity; ++j) {
      bits[static_cast<std::size_t>(j)] = (mask >> j) & 1;
      asg["i" + std::to_string(j)] = bits[static_cast<std::size_t>(j)];
    }
    EXPECT_EQ(cell_eval(type, bits), eval(fn, asg))
        << cell_info(type).name << " mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLogicCells, CellSemantics, ::testing::ValuesIn([] {
      std::vector<CellType> types;
      for (int t = 0; t < kNumCellTypes; ++t) {
        if (static_cast<CellType>(t) != CellType::kPort) {
          types.push_back(static_cast<CellType>(t));
        }
      }
      return types;
    }()),
    [](const ::testing::TestParamInfo<CellType>& info) {
      return cell_info(info.param).name;
    });

TEST(Netlist, AddAndLookup) {
  Netlist nl = paper_example();
  EXPECT_EQ(nl.size(), 5u);
  EXPECT_EQ(nl.find("U3"), 4);
  EXPECT_EQ(nl.find("nope"), kNoGate);
  EXPECT_EQ(nl.gate(nl.find("U1")).type, CellType::kXor2);
}

TEST(Netlist, ArityEnforced) {
  Netlist nl;
  const GateId a = nl.add_port("a");
  EXPECT_THROW(nl.add_gate(CellType::kAnd2, "g", {a}), std::invalid_argument);
}

TEST(Netlist, DuplicateNameRejected) {
  Netlist nl;
  nl.add_port("a");
  EXPECT_THROW(nl.add_port("a"), std::invalid_argument);
}

TEST(Netlist, FanoutsMaintained) {
  Netlist nl = paper_example();
  const GateId r2 = nl.find("R2");
  // R2 drives U1 and U2.
  EXPECT_EQ(nl.gate(r2).fanouts.size(), 2u);
}

TEST(Netlist, TopoOrderRespectsDependencies) {
  Netlist nl = paper_example();
  const auto order = nl.topo_order();
  std::vector<int> pos(nl.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  for (const Gate& g : nl.gates()) {
    if (g.type == CellType::kDff) continue;
    for (GateId f : g.fanins) {
      EXPECT_LT(pos[static_cast<std::size_t>(f)], pos[static_cast<std::size_t>(g.id)]);
    }
  }
}

TEST(Netlist, SequentialLoopIsLegal) {
  // DFF feedback (a counter bit) must not be reported as a cycle.
  Netlist nl("loop");
  const GateId tmp = nl.add_port("tmp");
  const GateId q = nl.add_gate(CellType::kDff, "q", {tmp});
  const GateId inv = nl.add_gate(CellType::kInv, "nq", {q});
  nl.replace_fanin(q, tmp, inv);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, ReplaceFaninRewiresFanouts) {
  Netlist nl = paper_example();
  const GateId r1 = nl.find("R1");
  const GateId r2 = nl.find("R2");
  const GateId u1 = nl.find("U1");
  nl.replace_fanin(u1, r1, r2);
  EXPECT_TRUE(nl.gate(r1).fanouts.empty());
  EXPECT_EQ(nl.gate(u1).fanins[0], r2);
  nl.validate();
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

TEST(Netlist, ReplaceFaninOnBrokenFanoutListThrows) {
  // Gate::fanouts is writable through Netlist::gate(); a list that no longer
  // names the rewired gate is reported, not an abort.
  Netlist nl = paper_example();
  const GateId r1 = nl.find("R1");
  nl.gate(r1).fanouts.clear();
  expect_check_error(
      [&] { nl.replace_fanin(nl.find("U1"), r1, nl.find("R2")); },
      "replace_fanin: R1 lists no fanout to U1 for fanin 1 of 1");
}

TEST(Netlist, SimulateRejectsWrongSourceCount) {
  const Netlist nl = paper_example();
  expect_check_error([&] { simulate(nl, std::vector<bool>(3, false)); },
                     "simulate: 3 source values for 5 gates");
}

TEST(CellLibrary, CellFunctionRejectsWrongInputCount) {
  expect_check_error(
      [] { cell_function(CellType::kAnd2, {Expr::var("a")}); },
      "cell_function: AND2 takes 2 inputs, got 1");
}

TEST(Netlist, StatsCountCorrectly) {
  Netlist nl = paper_example();
  EXPECT_EQ(nl.size(), 5u);
  EXPECT_EQ(type_counts(nl)[static_cast<std::size_t>(CellType::kPort)], 2u);
  EXPECT_EQ(logic_count(nl), 3u);
  EXPECT_TRUE(nl.registers().empty());
  EXPECT_GT(run_area(nl, 1.0).cell_area, 0.0);
}

TEST(Netlist, KhopExpressionPaperExample) {
  // Paper Fig. 3(b): U3's 2-hop expression is !((R1^R2)|!R2).
  Netlist nl = paper_example();
  const ExprPtr e = khop_expression(nl, nl.find("U3"), 2);
  EXPECT_EQ(to_string(e), "!((R1^R2)|!R2)");
}

TEST(Netlist, KhopZeroReturnsSelfVar) {
  Netlist nl = paper_example();
  const ExprPtr e = khop_expression(nl, nl.find("U3"), 0);
  EXPECT_EQ(to_string(e), "U3");
}

TEST(Netlist, KhopOneStopsAtImmediateFanin) {
  Netlist nl = paper_example();
  const ExprPtr e = khop_expression(nl, nl.find("U3"), 1);
  EXPECT_EQ(to_string(e), "!(U1|U2)");
}

TEST(Netlist, KhopStopsAtRegisters) {
  Netlist nl("seq");
  const GateId a = nl.add_port("a");
  const GateId d = nl.add_gate(CellType::kInv, "d", {a});
  const GateId q = nl.add_gate(CellType::kDff, "q", {d});
  const GateId out = nl.add_gate(CellType::kInv, "o", {q});
  EXPECT_EQ(to_string(khop_expression(nl, out, 5)), "!q");
}

TEST(Netlist, SimulateMatchesKhopExpression) {
  Netlist nl = paper_example();
  const ExprPtr e = khop_expression(nl, nl.find("U3"), 2);
  for (int mask = 0; mask < 4; ++mask) {
    std::vector<bool> sources(nl.size(), false);
    sources[static_cast<std::size_t>(nl.find("R1"))] = mask & 1;
    sources[static_cast<std::size_t>(nl.find("R2"))] = mask & 2;
    const auto values = simulate(nl, sources);
    Assignment asg{{"R1", static_cast<bool>(mask & 1)},
                   {"R2", static_cast<bool>(mask & 2)}};
    EXPECT_EQ(values[static_cast<std::size_t>(nl.find("U3"))], eval(e, asg));
  }
}

TEST(NetlistIo, RoundTrip) {
  Netlist nl = paper_example();
  nl.set_source("itc99");
  nl.gate(nl.find("U1")).rtl_block = "add";
  const std::string text = netlist_to_string(nl);
  const Netlist back = netlist_from_string(text);
  EXPECT_EQ(back.name(), "fig3");
  EXPECT_EQ(back.source(), "itc99");
  EXPECT_EQ(back.size(), nl.size());
  EXPECT_EQ(back.gate(back.find("U1")).rtl_block, "add");
  EXPECT_EQ(back.gate(back.find("U3")).type, CellType::kNor2);
  EXPECT_TRUE(back.gate(back.find("U3")).is_primary_output);
  // Semantics preserved: same 2-hop expression.
  EXPECT_EQ(to_string(khop_expression(back, back.find("U3"), 2)),
            "!((R1^R2)|!R2)");
}

TEST(NetlistIo, StateFlagRoundTrip) {
  Netlist nl("seq");
  const GateId a = nl.add_port("a");
  const GateId q = nl.add_gate(CellType::kDff, "q", {a});
  nl.gate(q).is_state_reg = true;
  const Netlist back = netlist_from_string(netlist_to_string(nl));
  EXPECT_TRUE(back.gate(back.find("q")).is_state_reg);
}

TEST(NetlistIo, SequentialFeedbackRoundTrip) {
  // Registers fed by later-defined logic (feedback) must survive the
  // write/read cycle — this is the regression for a real writer bug where
  // topological emission put DFFs before their drivers.
  Netlist nl("fb");
  const GateId tmp = nl.add_port("in");
  const GateId q = nl.add_gate(CellType::kDff, "q", {tmp});
  nl.gate(q).is_state_reg = true;
  const GateId inv = nl.add_gate(CellType::kInv, "ninv", {q});
  const GateId x = nl.add_gate(CellType::kXor2, "x", {inv, tmp});
  nl.replace_fanin(q, tmp, x);  // feedback: q.D = xor(!q, in)
  nl.mark_output(x);
  nl.validate();
  const Netlist back = netlist_from_string(netlist_to_string(nl));
  back.validate();
  EXPECT_EQ(back.size(), nl.size());
  EXPECT_TRUE(back.gate(back.find("q")).is_state_reg);
  EXPECT_EQ(back.gate(back.find("q")).fanins[0], back.find("x"));
  // Same next-state function.
  EXPECT_TRUE(semantically_equal(
      khop_expression(nl, nl.gate(nl.find("q")).fanins[0], 8),
      khop_expression(back, back.gate(back.find("q")).fanins[0], 8)));
}

TEST(NetlistIo, GeneratedDesignRoundTrip) {
  Rng rng(77);
  // Every family's designs must round-trip through the text format.
  for (const FamilyProfile& prof : benchmark_families()) {
    const Netlist nl = generate_design(prof, rng, prof.name + "_io").netlist;
    const Netlist back = netlist_from_string(netlist_to_string(nl));
    back.validate();
    EXPECT_EQ(back.size(), nl.size());
    EXPECT_EQ(back.registers().size(), nl.registers().size());
    const auto outputs = [](const Netlist& n) {
      return std::count_if(n.gates().begin(), n.gates().end(),
                           [](const Gate& g) { return g.is_primary_output; });
    };
    EXPECT_EQ(outputs(back), outputs(nl));
  }
}

TEST(NetlistIo, UndrivenRegisterRejected) {
  EXPECT_THROW(netlist_from_string("module m\nreg r\nendmodule\n"),
               std::runtime_error);
}

TEST(NetlistIo, MalformedInputs) {
  EXPECT_THROW(netlist_from_string("gate INV x y\n"), std::runtime_error);
  EXPECT_THROW(netlist_from_string("module m\n"), std::runtime_error);  // no end
  EXPECT_THROW(netlist_from_string("module m\ngate INV g nope\nendmodule\n"),
               std::runtime_error);
  EXPECT_THROW(netlist_from_string("module m\nport a\ngate FOO g a\nendmodule\n"),
               std::invalid_argument);
}

TEST(NetlistIo, CrlfLineEndsParse) {
  // `>>` treats '\r' as space, and so does the reader: CRLF text loads as
  // the same netlist.
  Rng rng(78);
  const Netlist nl =
      generate_design(benchmark_families()[0], rng, "crlf").netlist;
  const std::string text = netlist_to_string(nl);
  std::string crlf;
  for (char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  EXPECT_EQ(netlist_to_string(netlist_from_string(crlf)), text);
}

TEST(NetlistIo, ConstructionErrorsNameTheLine) {
  try {
    netlist_from_string("module m\nport a\nport a\nendmodule\n");
    FAIL() << "duplicate port accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("read_netlist: line 3: ", 0), 0u)
        << e.what();
  }
}

TEST(NetlistIo, MutatedTextParsesOrFailsWithLocation) {
  // Seeded mutants of generated netlists: truncations, byte flips, deleted
  // and duplicated lines. Each must parse, or throw naming its line (or the
  // register never driven): std::runtime_error from the reader, or
  // std::invalid_argument for an unknown cell, a duplicate name or a
  // second drive. None may crash or throw anything else.
  Rng gen_rng(79);
  Rng rng(0x5eed5);
  int parsed = 0, rejected = 0;
  for (const FamilyProfile& profile : benchmark_families()) {
    const std::string text =
        netlist_to_string(generate_design(profile, gen_rng, "mut").netlist);
    std::vector<std::size_t> starts = {0};
    for (std::size_t i = 0; i + 1 < text.size(); ++i) {
      if (text[i] == '\n') starts.push_back(i + 1);
    }
    starts.push_back(text.size());
    for (int t = 0; t < 200; ++t) {
      std::string m = text;
      const std::size_t k = rng.index(starts.size() - 1);
      const std::size_t len = starts[k + 1] - starts[k];
      switch (t % 4) {
        case 0:
          m.resize(rng.index(m.size() + 1));
          break;
        case 1:
          m[rng.index(m.size())] = static_cast<char>(rng.index(256));
          break;
        case 2:
          m.erase(starts[k], len);
          break;
        default:
          m.insert(starts[k], text.substr(starts[k], len));
          break;
      }
      try {
        netlist_from_string(m);
        ++parsed;
        continue;
      } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        ASSERT_TRUE(msg.rfind("read_netlist: line ", 0) == 0 ||
                    (msg.rfind("read_netlist: register '", 0) == 0 &&
                     msg.find("' never driven") != std::string::npos))
            << msg;
      } catch (const std::invalid_argument& e) {
        ASSERT_EQ(std::string(e.what()).rfind("read_netlist: line ", 0), 0u)
            << e.what();
      }
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace nettag
