// Cross-validation of the analytic activity propagation against Monte-Carlo
// simulation and against the original three-sweep implementation, plus
// tokenizer robustness fuzzing.
//
// The independence assumption behind run_power() is *exact* on fanout-free
// (tree) circuits, so on a tree the analytic probabilities and transition
// densities must match a two-sample Monte-Carlo estimate within sampling
// error. On reconvergent circuits it is an approximation — we only check
// boundedness there.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "expr/tokenizer.hpp"
#include "netlist/cone.hpp"
#include "physical/analysis.hpp"
#include "physical/placement.hpp"
#include "rtlgen/generator.hpp"
#include "rtlgen/hierarchy.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "width_guard.hpp"

namespace nettag {
namespace {

/// Builds a fanout-free tree circuit: each gate's output feeds exactly one
/// sink. Returns the netlist; every PORT/DFF is a source.
Netlist tree_circuit() {
  Netlist nl("tree");
  std::vector<GateId> leaves;
  for (int i = 0; i < 8; ++i) leaves.push_back(nl.add_port("p" + std::to_string(i)));
  const GateId a = nl.add_gate(CellType::kAnd2, "a", {leaves[0], leaves[1]});
  const GateId b = nl.add_gate(CellType::kOr2, "b", {leaves[2], leaves[3]});
  const GateId c = nl.add_gate(CellType::kXor2, "c", {leaves[4], leaves[5]});
  const GateId d = nl.add_gate(CellType::kNand2, "d", {leaves[6], leaves[7]});
  const GateId e = nl.add_gate(CellType::kMux2, "e", {a, b, c});
  const GateId f = nl.add_gate(CellType::kNor2, "f", {e, d});
  nl.mark_output(f);
  return nl;
}

TEST(PowerValidation, AnalyticMatchesMonteCarloOnTree) {
  const Netlist nl = tree_circuit();
  Parasitics para;
  para.nets.resize(nl.size());
  const double p_in = 0.5, act_in = 0.3;
  const PowerReport analytic = run_power(nl, para, act_in, p_in);

  // Monte-Carlo: sample consecutive input pairs; count per-gate ones and
  // toggles. Consecutive inputs share a bit with prob (1 - act_in) per the
  // transition-density model.
  Rng rng(99);
  const int kSamples = 40000;
  std::vector<int> ones(nl.size(), 0), toggles(nl.size(), 0);
  for (int s = 0; s < kSamples; ++s) {
    std::vector<bool> x0(nl.size(), false), x1(nl.size(), false);
    for (const Gate& g : nl.gates()) {
      if (g.type != CellType::kPort) continue;
      const bool v0 = rng.chance(p_in);
      x0[static_cast<std::size_t>(g.id)] = v0;
      x1[static_cast<std::size_t>(g.id)] = rng.chance(act_in) ? !v0 : v0;
    }
    const auto v0 = simulate(nl, x0);
    const auto v1 = simulate(nl, x1);
    for (std::size_t i = 0; i < nl.size(); ++i) {
      ones[i] += v0[i];
      toggles[i] += v0[i] != v1[i];
    }
  }
  for (const Gate& g : nl.gates()) {
    if (g.type == CellType::kPort) continue;
    const std::size_t i = static_cast<std::size_t>(g.id);
    const double mc_prob = static_cast<double>(ones[i]) / kSamples;
    const double mc_toggle = static_cast<double>(toggles[i]) / kSamples;
    EXPECT_NEAR(analytic.prob[i], mc_prob, 0.02) << g.name;
    EXPECT_NEAR(analytic.toggle[i], mc_toggle, 0.03) << g.name;
  }
}

TEST(PowerValidation, ReconvergentCircuitStaysBounded) {
  Rng rng(7);
  const Netlist nl =
      generate_design(family_profile("itc99"), rng, "pwr_bound").netlist;
  Parasitics para;
  para.nets.resize(nl.size());
  const PowerReport rep = run_power(nl, para);
  for (std::size_t i = 0; i < nl.size(); ++i) {
    EXPECT_GE(rep.prob[i], 0.0);
    EXPECT_LE(rep.prob[i], 1.0);
    EXPECT_GE(rep.toggle[i], 0.0);
    EXPECT_LE(rep.toggle[i], 1.0);
  }
}

TEST(PowerValidation, ConstNetsNeverToggle) {
  Netlist nl("c");
  const GateId one = nl.add_gate(CellType::kConst1, "one", {});
  const GateId a = nl.add_port("a");
  const GateId g = nl.add_gate(CellType::kAnd2, "g", {one, a});
  (void)g;
  Parasitics para;
  para.nets.resize(nl.size());
  const PowerReport rep = run_power(nl, para, 0.4, 0.5);
  EXPECT_DOUBLE_EQ(rep.toggle[static_cast<std::size_t>(one)], 0.0);
  // AND with constant-1: output follows `a` exactly.
  EXPECT_NEAR(rep.toggle[static_cast<std::size_t>(nl.find("g"))], 0.4, 1e-9);
  EXPECT_NEAR(rep.prob[static_cast<std::size_t>(nl.find("g"))], 0.5, 1e-9);
}

TEST(TokenizerFuzz, ArbitraryBytesNeverCrash) {
  Rng rng(5);
  Vocab vocab;
  for (int t = 0; t < 200; ++t) {
    std::string s;
    const int len = rng.uniform_int(0, 60);
    for (int i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.uniform_int(32, 126)));
    }
    const auto toks = tokenize_text(s);
    const auto ids = encode_text(vocab, s, 32);
    EXPECT_LE(ids.size(), 32u);
    for (int id : ids) {
      EXPECT_GE(id, 0);
      EXPECT_LT(id, vocab.size());
    }
    (void)toks;
  }
}

TEST(TokenizerFuzz, ManyDistinctIdentifiersWrapSlots) {
  // More identifiers than anonymization slots must wrap, not crash.
  std::string s;
  for (int i = 0; i < Vocab::kMaxVars * 2; ++i) {
    s += "ident" + std::to_string(i) + " ";
  }
  const auto toks = tokenize_text(s);
  EXPECT_EQ(toks.size(), static_cast<std::size_t>(Vocab::kMaxVars) * 2);
  EXPECT_EQ(toks.front(), "v0");
  EXPECT_EQ(toks[static_cast<std::size_t>(Vocab::kMaxVars)], "v0");  // wrapped
}


/// encode_text must be tokenize_text mapped through Vocab::id, cut to the
/// first max_len ids: the encoder emits ids straight from the scanner and
/// stops early, so this pins that it never diverges from the token strings.
/// The cases run on the shared pool (width NETTAG_THREADS) over one Vocab,
/// as the daemon's shard workers read it.
TEST(TokenizerFuzz, EncodeTextMatchesTokenStrings) {
  const std::vector<std::string> edge = {
      "b12", "v30", "v01", "V3", "GATE", "v23", "v24", "b7", "b8", "B3",
      "Nand2", "<num>", "_x", "a[1]", "x]", "0", "1", "00", "1.5", "0.",
      " ", "\t", "\n", "\v", "\f", "\r", std::string(1, '\0'), "\xff",
      "!", "(", ")", "=", "expr", "gate", "ab", "Ab", "aB"};
  Rng rng(31);
  std::vector<std::string> inputs = edge;
  for (int t = 0; t < 4000; ++t) {
    std::string s;
    const int pieces = rng.uniform_int(0, 40);
    for (int i = 0; i < pieces; ++i) {
      if (rng.chance(0.25)) {
        s += edge[rng.index(edge.size())];
      } else {
        s.push_back(static_cast<char>(rng.uniform_int(0, 255)));
      }
    }
    inputs.push_back(std::move(s));
  }
  // 60 distinct identifiers: anonymization wraps modulo kMaxVars.
  std::string many;
  for (int i = 0; i < 60; ++i) many += "w" + std::to_string(i) + "_ & ";
  inputs.push_back(many);

  const Vocab vocab;
  const std::vector<std::size_t> limits = {0, 1, 5, 96};
  std::vector<int> mismatches(inputs.size(), 0);
  ThreadPool::instance().run_indexed(inputs.size(), [&](std::size_t c) {
    const std::string& s = inputs[c];
    std::vector<int> all;
    for (const std::string& tok : tokenize_text(s)) all.push_back(vocab.id(tok));
    for (const std::size_t limit : limits) {
      std::vector<int> want = all;
      if (limit && want.size() > limit) want.resize(limit);
      if (encode_text(vocab, s, limit) != want) ++mismatches[c];
    }
  });
  for (std::size_t c = 0; c < inputs.size(); ++c) {
    EXPECT_EQ(mismatches[c], 0) << "input #" << c;
  }
}

TEST(Tokenizer, SlotShapesCaseAndVocabWords) {
  const Vocab v;
  // Out-of-range slot shapes stay themselves ([UNK]) and take no slot.
  EXPECT_EQ(tokenize_text("b12 v30 v01 x"),
            (std::vector<std::string>{"b12", "v30", "v01", "v0"}));
  EXPECT_EQ(encode_text(v, "b12 v30 v01 x"),
            (std::vector<int>{v.unk_id(), v.unk_id(), v.unk_id(), v.id("v0")}));
  // Keywords and slot tokens match through their lower-case forms...
  EXPECT_EQ(encode_text(v, "V3 GATE Nand2"),
            (std::vector<int>{v.id("v3"), v.id("gate"), v.id("nand2")}));
  // ...but anonymization is case-sensitive.
  EXPECT_EQ(tokenize_text("ab Ab ab"),
            (std::vector<std::string>{"v0", "v1", "v0"}));
  // Every identifier-shaped vocabulary entry is a word to the scanner.
  for (int id = 0; id < v.size(); ++id) {
    const std::string& tok = v.token(id);
    const unsigned char c0 = static_cast<unsigned char>(tok[0]);
    if (!(std::isalpha(c0) || c0 == '_')) continue;
    EXPECT_EQ(tokenize_text(tok), std::vector<std::string>{tok});
    EXPECT_EQ(encode_text(v, tok), std::vector<int>{id});
  }
}

// --- The original run_power, kept as the oracle ------------------------------
//
// run_power() enumerates input patterns into fixed-size scratch, sweeps the
// gates in topological order and runs one sweep when no register has a
// fanout. This is the implementation it replaced: a heap-allocated
// std::vector<bool> per pattern and three level-by-level sweeps everywhere.
// Reports must match it byte for byte.

std::vector<std::vector<GateId>> reference_levelize(const Netlist& nl) {
  std::vector<int> level(nl.size(), 0);
  int max_level = 0;
  for (GateId id : nl.topo_order()) {
    const Gate& g = nl.gate(id);
    if (g.type == CellType::kPort || g.type == CellType::kConst0 ||
        g.type == CellType::kConst1 || g.type == CellType::kDff) {
      continue;
    }
    int lv = 0;
    for (GateId f : g.fanins) {
      lv = std::max(lv, level[static_cast<std::size_t>(f)] + 1);
    }
    level[static_cast<std::size_t>(id)] = lv;
    max_level = std::max(max_level, lv);
  }
  std::vector<std::vector<GateId>> levels(static_cast<std::size_t>(max_level) + 1);
  for (GateId id : nl.topo_order()) {
    levels[static_cast<std::size_t>(level[static_cast<std::size_t>(id)])]
        .push_back(id);
  }
  return levels;
}

PowerReport reference_run_power(const Netlist& nl, const Parasitics& para,
                                double input_activity = 0.2,
                                double input_prob = 0.5,
                                double clock_ghz = 1.0) {
  constexpr double kVdd = 1.1;
  PowerReport rep;
  const std::size_t n = nl.size();
  rep.prob.assign(n, 0.0);
  rep.toggle.assign(n, 0.0);
  rep.gate_power.assign(n, 0.0);

  auto propagate_gate = [&](const Gate& g) {
    const int k = static_cast<int>(g.fanins.size());
    std::vector<double> pi(static_cast<std::size_t>(k));
    std::vector<double> ti(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      const std::size_t f =
          static_cast<std::size_t>(g.fanins[static_cast<std::size_t>(i)]);
      pi[static_cast<std::size_t>(i)] = rep.prob[f];
      ti[static_cast<std::size_t>(i)] =
          std::min(rep.toggle[f],
                   2.0 * std::min(rep.prob[f], 1.0 - rep.prob[f]));
    }
    double p_one = 0.0, t_out = 0.0;
    for (int m0 = 0; m0 < (1 << k); ++m0) {
      double pm0 = 1.0;
      std::vector<bool> bits0(static_cast<std::size_t>(k));
      for (int i = 0; i < k; ++i) {
        const bool b = (m0 >> i) & 1;
        bits0[static_cast<std::size_t>(i)] = b;
        pm0 *= b ? pi[static_cast<std::size_t>(i)]
                 : 1.0 - pi[static_cast<std::size_t>(i)];
      }
      if (pm0 <= 0.0) continue;
      const bool y0 = cell_eval(g.type, bits0);
      if (y0) p_one += pm0;
      for (int m1 = 0; m1 < (1 << k); ++m1) {
        double pm01 = pm0;
        std::vector<bool> bits1(static_cast<std::size_t>(k));
        for (int i = 0; i < k; ++i) {
          const bool b0 = bits0[static_cast<std::size_t>(i)];
          const bool b1 = (m1 >> i) & 1;
          bits1[static_cast<std::size_t>(i)] = b1;
          const double p1 = pi[static_cast<std::size_t>(i)];
          const double half_t = ti[static_cast<std::size_t>(i)] / 2.0;
          const double p_b0 = b0 ? p1 : 1.0 - p1;
          const double p_flip = p_b0 > 1e-12 ? half_t / p_b0 : 0.0;
          pm01 *= b0 == b1 ? 1.0 - p_flip : p_flip;
        }
        if (pm01 <= 0.0) continue;
        if (cell_eval(g.type, bits1) != y0) t_out += pm01;
      }
    }
    rep.prob[static_cast<std::size_t>(g.id)] = std::clamp(p_one, 0.0, 1.0);
    rep.toggle[static_cast<std::size_t>(g.id)] = std::clamp(t_out, 0.0, 1.0);
  };

  for (const Gate& g : nl.gates()) {
    const std::size_t i = static_cast<std::size_t>(g.id);
    switch (g.type) {
      case CellType::kPort:
        rep.prob[i] = input_prob;
        rep.toggle[i] = input_activity;
        break;
      case CellType::kConst0:
        rep.prob[i] = 0.0;
        rep.toggle[i] = 0.0;
        break;
      case CellType::kConst1:
        rep.prob[i] = 1.0;
        rep.toggle[i] = 0.0;
        break;
      case CellType::kDff:
        rep.prob[i] = 0.5;
        rep.toggle[i] = input_activity;
        break;
      default:
        break;
    }
  }
  constexpr int kSweeps = 3;
  const std::vector<std::vector<GateId>> levels = reference_levelize(nl);
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (const std::vector<GateId>& lvl : levels) {
      for (const GateId id : lvl) {
        const Gate& g = nl.gate(id);
        if (g.type == CellType::kPort || g.type == CellType::kConst0 ||
            g.type == CellType::kConst1 || g.type == CellType::kDff) {
          continue;
        }
        propagate_gate(g);
      }
    }
    for (const Gate& g : nl.gates()) {
      if (g.type != CellType::kDff) continue;
      const std::size_t d = static_cast<std::size_t>(g.fanins[0]);
      rep.prob[static_cast<std::size_t>(g.id)] = rep.prob[d];
      rep.toggle[static_cast<std::size_t>(g.id)] = rep.toggle[d];
    }
  }

  std::vector<double> dyn(n), leak(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Gate& g = nl.gate(static_cast<GateId>(i));
    const NetParasitics& net = para.nets[i];
    dyn[i] = 0.5 * net.load() * kVdd * kVdd * clock_ghz * rep.toggle[i];
    leak[i] = cell_info(g.type).leakage * 1e-3;
    rep.gate_power[i] = dyn[i] + leak[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    rep.dynamic_power += dyn[i];
    rep.leakage_power += leak[i];
  }
  return rep;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Byte equality of every field of two power reports.
::testing::AssertionResult SameReport(const PowerReport& got,
                                      const PowerReport& want) {
  if (!same_bytes(got.prob, want.prob)) return ::testing::AssertionFailure() << "prob";
  if (!same_bytes(got.toggle, want.toggle)) {
    return ::testing::AssertionFailure() << "toggle";
  }
  if (!same_bytes(got.gate_power, want.gate_power)) {
    return ::testing::AssertionFailure() << "gate_power";
  }
  if (std::memcmp(&got.dynamic_power, &want.dynamic_power, sizeof(double)) != 0 ||
      std::memcmp(&got.leakage_power, &want.leakage_power, sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "totals";
  }
  return ::testing::AssertionSuccess();
}

/// Pin-cap-only parasitics, as netlist_stage_power() builds them.
Parasitics pin_cap_parasitics(const Netlist& nl) {
  Parasitics para;
  para.nets.resize(nl.size());
  for (const Gate& g : nl.gates()) {
    for (GateId s : g.fanouts) {
      para.nets[static_cast<std::size_t>(g.id)].pin_cap +=
          cell_info(nl.gate(s).type).input_cap;
    }
  }
  return para;
}

TEST(Power, MatchesThreeSweepReference) {
  // Flat designs of every family plus two small hierarchical ones.
  std::vector<Netlist> designs;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const FamilyProfile& fam =
        benchmark_families()[seed % benchmark_families().size()];
    designs.push_back(
        generate_design(fam, rng, "pw" + std::to_string(seed)).netlist);
  }
  HierarchyOptions ho;
  ho.levels = 2;
  ho.min_blocks_per_level = 2;
  ho.max_blocks_per_level = 2;
  ho.shared_blocks = 1;
  for (std::uint64_t seed = 11; seed <= 12; ++seed) {
    Rng rng(seed);
    designs.push_back(generate_hierarchical_design(
                          family_profile("itc99"), ho, rng,
                          "ph" + std::to_string(seed))
                          .netlist);
  }
  // Whole designs have registers with fanout (three sweeps); register cones
  // never do (one sweep). Both must be covered.
  const auto registers_have_fanout = [](const Netlist& nl) {
    return std::any_of(nl.gates().begin(), nl.gates().end(), [](const Gate& g) {
      return g.type == CellType::kDff && !g.fanouts.empty();
    });
  };
  EXPECT_TRUE(std::all_of(designs.begin(), designs.end(), registers_have_fanout));
  for (const int width : {1, 4}) {
    WidthGuard guard(width);
    std::size_t cones = 0;
    for (const Netlist& nl : designs) {
      EXPECT_TRUE(SameReport(netlist_stage_power(nl),
                             reference_run_power(nl, pin_cap_parasitics(nl))))
          << nl.name() << " at width " << width;
      // Wire loads and non-default activity, as the physical flow runs it.
      Rng place_rng(3);
      const Parasitics wired = extract_parasitics(nl, place(nl, place_rng, 2));
      EXPECT_TRUE(SameReport(run_power(nl, wired, 0.35, 0.4, 1.5),
                             reference_run_power(nl, wired, 0.35, 0.4, 1.5)))
          << nl.name() << " (wired) at width " << width;
      for (const RegisterCone& rc : extract_register_cones(nl, 120)) {
        ++cones;
        EXPECT_TRUE(
            SameReport(netlist_stage_power(rc.cone),
                       reference_run_power(rc.cone, pin_cap_parasitics(rc.cone))))
            << rc.cone.name() << " at width " << width;
      }
    }
    EXPECT_GT(cones, 100u);
  }
}

}  // namespace
}  // namespace nettag
