// Unit tests for NetTAG-Lint (src/analysis): seeded-defect netlists each
// firing exactly their rule, TAG/layout consistency rules, the checked
// invariant machinery (NETTAG_CHECK / deep checks), report rendering, the
// pipeline-seam guard, and NETTAG_THREADS parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <unordered_set>

#include "analysis/check.hpp"
#include "analysis/lint.hpp"
#include "core/dataset.hpp"
#include "core/tag.hpp"
#include "model/graph.hpp"
#include "netlist/netlist.hpp"
#include "nn/tensor.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace nettag {
namespace {

// --- helpers -----------------------------------------------------------------

/// Restores the deep-check flag on scope exit so tests cannot leak mode.
struct DeepChecksGuard {
  explicit DeepChecksGuard(bool on) { set_deep_checks(on); }
  ~DeepChecksGuard() { set_deep_checks(false); }
};

/// Number of findings of `rule` in `report`.
std::size_t count_rule(const LintReport& report, const std::string& rule) {
  std::size_t n = 0;
  for (const Diagnostic& d : report.diagnostics()) n += d.rule == rule;
  return n;
}

/// True when every diagnostic in `report` belongs to `rule` — the
/// "fires exactly its rule" assertion for seeded defects.
bool only_rule(const LintReport& report, const std::string& rule) {
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.rule != rule) return false;
  }
  return !report.empty();
}

/// The reference netlist from netlist_test.cpp:
///   U1 = XOR2(R1, R2); U2 = INV(R2); U3 = NOR2(U1, U2), U3 an output.
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

// --- netlist structural rules ------------------------------------------------

TEST(LintNetlist, CleanNetlistHasNoFindings) {
  EXPECT_TRUE(lint_netlist(paper_example()).empty());
}

TEST(LintNetlist, CombLoopFiresNl001) {
  // g1 = INV(a); g2 = INV(g1); then rewire g1's input from a to g2.
  Netlist nl("loop");
  const GateId a = nl.add_port("a");
  const GateId g1 = nl.add_gate(CellType::kInv, "g1", {a});
  const GateId g2 = nl.add_gate(CellType::kInv, "g2", {g1});
  nl.mark_output(g2);
  nl.replace_fanin(g1, a, g2);

  const LintReport report = lint_netlist(nl);
  EXPECT_TRUE(only_rule(report, "NL001")) << to_text(report);
  EXPECT_EQ(count_rule(report, "NL001"), 1u);  // one finding per SCC
  EXPECT_TRUE(report.has_errors());
  // The SCC members are named so the report is actionable.
  EXPECT_NE(report.diagnostics()[0].message.find("g1"), std::string::npos);
  EXPECT_NE(report.diagnostics()[0].message.find("g2"), std::string::npos);
}

TEST(LintNetlist, SelfLoopFiresNl001) {
  Netlist nl("selfloop");
  const GateId a = nl.add_port("a");
  const GateId g = nl.add_gate(CellType::kAnd2, "g", {a, a});
  nl.mark_output(g);
  nl.replace_fanin(g, a, g);  // g = AND2(g, g)

  const LintReport report = lint_netlist(nl);
  EXPECT_TRUE(only_rule(report, "NL001")) << to_text(report);
}

TEST(LintNetlist, FloatingCombOutputFiresNl004) {
  // U1 drives nothing and is not an output -> dead logic warning; the
  // unconsumed port R1 stays legal (generated designs have dead ports).
  Netlist nl("float");
  const GateId r1 = nl.add_port("R1");
  const GateId r2 = nl.add_port("R2");
  nl.add_gate(CellType::kXor2, "U1", {r1, r2});
  const GateId u2 = nl.add_gate(CellType::kInv, "U2", {r2});
  nl.mark_output(u2);

  const LintReport report = lint_netlist(nl);
  EXPECT_TRUE(only_rule(report, "NL004")) << to_text(report);
  EXPECT_EQ(report.count(Severity::kWarning), 1u);
  EXPECT_FALSE(report.has_errors());  // consumable, seams do not throw
}

TEST(LintNetlist, DoubleDriverFiresNl003) {
  Netlist nl("double");
  const GateId a = nl.add_port("a");
  const GateId b = nl.add_port("b");
  const GateId d1 = nl.add_gate(CellType::kInv, "d1", {a});
  const GateId d2 = nl.add_gate(CellType::kInv, "d2", {b});
  const GateId reg = nl.add_register("r0");
  nl.connect_register(reg, d1);
  // Second driver contending for the 1-pin D input (kept consistent with
  // the fanout multiset so only NL003 fires).
  nl.gate(reg).fanins.push_back(d2);
  nl.gate(d2).fanouts.push_back(reg);
  nl.mark_output(reg);

  const LintReport report = lint_netlist(nl);
  EXPECT_TRUE(only_rule(report, "NL003")) << to_text(report);
  EXPECT_TRUE(report.has_errors());
}

TEST(LintNetlist, UndrivenRegisterFiresNl002) {
  Netlist nl("undriven");
  const GateId a = nl.add_port("a");
  const GateId reg = nl.add_register("r0");  // connect_register never called
  const GateId g = nl.add_gate(CellType::kAnd2, "g", {a, reg});
  nl.mark_output(g);

  const LintReport report = lint_netlist(nl);
  EXPECT_TRUE(only_rule(report, "NL002")) << to_text(report);
  EXPECT_NE(report.diagnostics()[0].message.find("D pin"), std::string::npos);
}

TEST(LintNetlist, UnknownCellFiresNl005Alone) {
  Netlist nl = paper_example();
  nl.gate(nl.find("U1")).type = static_cast<CellType>(99);

  const LintReport report = lint_netlist(nl);
  // The corrupt gate is reported once and excluded from arity/loop/fanout
  // analysis instead of cascading into bogus findings.
  EXPECT_TRUE(only_rule(report, "NL005")) << to_text(report);
  EXPECT_EQ(report.size(), 1u);
}

TEST(LintNetlist, FanoutBoundFiresNl007) {
  Netlist nl("fanout");
  const GateId a = nl.add_port("a");
  const GateId src = nl.add_gate(CellType::kInv, "src", {a});
  for (int i = 0; i < 5; ++i) {
    nl.mark_output(nl.add_gate(CellType::kInv, "s" + std::to_string(i), {src}));
  }
  LintOptions opts;
  opts.max_fanout = 4;
  const LintReport report = lint_netlist(nl, opts);
  EXPECT_TRUE(only_rule(report, "NL007")) << to_text(report);

  opts.max_fanout = 5;
  EXPECT_TRUE(lint_netlist(nl, opts).empty());
}

TEST(LintNetlist, DisabledRuleIsSkipped) {
  Netlist nl("float");
  const GateId a = nl.add_port("a");
  nl.add_gate(CellType::kInv, "dead", {a});
  LintOptions opts;
  opts.disabled.insert("NL004");
  EXPECT_TRUE(lint_netlist(nl, opts).empty());
}

TEST(LintNetlist, FanoutMismatchFiresNl009) {
  Netlist nl = paper_example();
  nl.gate(nl.find("R1")).fanouts.clear();  // simulate index corruption

  const LintReport report = lint_netlist(nl);
  EXPECT_TRUE(only_rule(report, "NL009")) << to_text(report);
}

// --- TAG consistency rules ---------------------------------------------------

TEST(LintTag, CleanTagDeepHasNoFindings) {
  const Netlist nl = paper_example();
  LintOptions opts;
  opts.deep = true;
  EXPECT_TRUE(lint_tag(nl, build_tag(nl, opts.k_hop), opts).empty());
}

TEST(LintTag, TamperedExpressionFiresTg004) {
  const Netlist nl = paper_example();
  TagGraph tag = build_tag(nl);
  // Rewrite U3's rendered cone function to a wrong (but well-formed)
  // expression; only the deep semantic rule can tell.
  const std::size_t u3 = static_cast<std::size_t>(nl.find("U3"));
  std::string& attr = tag.attrs[u3];
  const std::size_t at = attr.find(" expr ");
  ASSERT_NE(at, std::string::npos) << attr;
  attr = attr.substr(0, at) + " expr U3 = R1";

  LintOptions opts;
  opts.deep = true;
  const LintReport report = lint_tag(nl, tag, opts);
  EXPECT_TRUE(only_rule(report, "TG004")) << to_text(report);
  EXPECT_EQ(count_rule(report, "TG004"), 1u);

  // The same tamper goes unnoticed without deep mode: semantic rules are
  // opt-in because they re-derive every cone function.
  opts.deep = false;
  EXPECT_TRUE(lint_tag(nl, tag, opts).empty());
}

TEST(LintTag, OutOfRangeEdgeFiresTg003) {
  const Netlist nl = paper_example();
  TagGraph tag = build_tag(nl);
  tag.edges.emplace_back(0, 999);

  const LintReport report = lint_tag(nl, tag);
  EXPECT_GE(count_rule(report, "TG003"), 1u) << to_text(report);
  // The stray edge also breaks edge-set agreement with the netlist.
  EXPECT_GE(count_rule(report, "TG006"), 1u) << to_text(report);
}

TEST(LintTag, EmptyAttributeFiresTg001) {
  const Netlist nl = paper_example();
  TagGraph tag = build_tag(nl);
  tag.attrs[0].clear();

  const LintReport report = lint_tag(nl, tag);
  EXPECT_TRUE(only_rule(report, "TG001")) << to_text(report);
}

TEST(LintTag, NodeCountMismatchFiresTg002) {
  const Netlist nl = paper_example();
  TagGraph tag = build_tag(nl);
  tag.attrs.pop_back();
  tag.phys = Mat(tag.num_nodes(), tag.phys.cols);

  const LintReport report = lint_tag(nl, tag);
  EXPECT_GE(count_rule(report, "TG002"), 1u) << to_text(report);
}

TEST(LintTag, NonFinitePhysFiresTg005) {
  const Netlist nl = paper_example();
  TagGraph tag = build_tag(nl);
  tag.phys.at(1, 0) = std::numeric_limits<float>::quiet_NaN();

  const LintReport report = lint_tag(nl, tag);
  EXPECT_TRUE(only_rule(report, "TG005")) << to_text(report);
}

// --- layout-graph rules ------------------------------------------------------

TEST(LintLayout, NegativeParasiticFiresLg002) {
  LayoutGraph lg;
  lg.node_feats.push_back({1.0, 2.0, 3.0, 4.0, 0.0, 0.0});
  lg.node_feats.push_back({1.0, -0.5, 3.0, 4.0, 0.0, 0.0});  // negative R
  lg.edges.emplace_back(0, 1);

  const LintReport report = lint_layout(lg);
  EXPECT_TRUE(only_rule(report, "LG002")) << to_text(report);
  EXPECT_NE(report.diagnostics()[0].message.find("wire_res"),
            std::string::npos);
}

TEST(LintLayout, NanFeatureFiresLg001AndBadEdgeLg003) {
  LayoutGraph lg;
  lg.node_feats.push_back(
      {std::numeric_limits<double>::infinity(), 0.0, 0.0, 0.0, 0.0, 0.0});
  lg.edges.emplace_back(0, 3);

  const LintReport report = lint_layout(lg);
  EXPECT_EQ(count_rule(report, "LG001"), 1u) << to_text(report);
  EXPECT_EQ(count_rule(report, "LG003"), 1u) << to_text(report);
  // Negative placement coordinates are fine (features 4-5 are x/y).
  LayoutGraph ok;
  ok.node_feats.push_back({0.0, 0.0, 0.0, 0.0, -5.0, -7.0});
  EXPECT_TRUE(lint_layout(ok).empty());
}

// --- clean-pipeline integration ----------------------------------------------

TEST(LintPipeline, GeneratedCorpusLintsClean) {
  CorpusOptions opts;
  opts.designs_per_family = 1;
  Rng rng(7);
  // build_corpus itself enforces the seam; re-lint explicitly to assert the
  // report is literally empty (no warnings either), then deep-lint one
  // cone's TAG end to end.
  const Corpus corpus = build_corpus(opts, rng);
  const LintReport report = lint_corpus(corpus);
  EXPECT_TRUE(report.empty()) << to_text(report);

  ASSERT_FALSE(corpus.designs.empty());
  ASSERT_FALSE(corpus.designs[0].cones.empty());
  const ConeSample& cone = corpus.designs[0].cones[0];
  LintOptions deep;
  deep.deep = true;
  const LintReport tag_report =
      lint_tag(cone.cone, build_tag(cone.cone, deep.k_hop), deep);
  EXPECT_TRUE(tag_report.empty()) << to_text(tag_report);
}

// --- report rendering and the seam guard -------------------------------------

TEST(LintReport_, TextSortsErrorsFirstAndSummarizes) {
  LintReport report;
  report.add("NL004", Severity::kWarning, "gate U1", "floats");
  report.add("NL001", Severity::kError, "netlist", "cycle");
  const std::string text = to_text(report);
  EXPECT_LT(text.find("error [NL001]"), text.find("warning [NL004]"));
  EXPECT_NE(text.find("1 error(s), 1 warning(s), 0 info(s)"),
            std::string::npos);
}

TEST(LintReport_, JsonEscapesAndCounts) {
  LintReport report;
  report.add("TG001", Severity::kError, "node \"0\"", "line1\nline2");
  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"rule\":\"TG001\""), std::string::npos);
  EXPECT_NE(json.find("node \\\"0\\\""), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
  EXPECT_NE(json.find("\"summary\":{\"errors\":1,\"warnings\":0,\"infos\":0}"),
            std::string::npos);
  EXPECT_EQ(to_json(LintReport()),
            "{\"diagnostics\":[],\"summary\":{\"errors\":0,\"warnings\":0,"
            "\"infos\":0}}");
}

TEST(LintReport_, MergePrefixesContext) {
  LintReport inner;
  inner.add("NL004", Severity::kWarning, "gate U1", "floats");
  LintReport outer;
  outer.merge(inner, "designA");
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(outer.diagnostics()[0].object, "designA: gate U1");
}

TEST(LintReport_, EnforceCleanThrowsOnErrorsOnly) {
  LintReport warnings;
  warnings.add("NL004", Severity::kWarning, "gate U1", "floats");
  EXPECT_NO_THROW(enforce_clean(warnings, "seam"));

  LintReport errors;
  errors.add("NL001", Severity::kError, "netlist", "cycle");
  try {
    enforce_clean(errors, "rtlgen testdesign");
    FAIL() << "enforce_clean must throw on error findings";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rtlgen testdesign"), std::string::npos);
    EXPECT_NE(what.find("NL001"), std::string::npos);
  }
}

TEST(RuleCatalog, IdsUniqueAndOrderedWithinFamily) {
  const auto& catalog = rule_catalog();
  ASSERT_FALSE(catalog.empty());
  std::unordered_set<std::string> seen;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_TRUE(seen.insert(catalog[i].id).second)
        << "duplicate rule id " << catalog[i].id;
    // Ids are ordered inside each prefix block (NL..., TG..., LG..., ...).
    if (i > 0 && std::string(catalog[i - 1].id).substr(0, 2) ==
                     std::string(catalog[i].id).substr(0, 2)) {
      EXPECT_LT(std::string(catalog[i - 1].id), std::string(catalog[i].id));
    }
  }
}

// --- NETTAG_CHECK / deep-check machinery -------------------------------------

TEST(Check, ShapeMismatchThrowsCheckErrorWithShapes) {
  const Tensor a = make_tensor(Mat(2, 3));
  const Tensor b = make_tensor(Mat(2, 3));  // matmul needs 3x? on the right
  try {
    matmul(a, b);
    FAIL() << "matmul must reject mismatched inner dimensions";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("NETTAG_CHECK failed"), std::string::npos);
    EXPECT_NE(what.find("2x3"), std::string::npos);  // shapes in the message
  }
}

TEST(Check, DeepModeCatchesNonFiniteForward) {
  DeepChecksGuard guard(true);
  Mat big(1, 1);
  big.at(0, 0) = 1e30f;
  const Tensor a = make_tensor(big);
  // 1e30 * 1e30 overflows float to +inf; the post-op sweep names the op.
  try {
    matmul(a, a);
    FAIL() << "deep mode must reject non-finite op output";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("matmul"), std::string::npos);
  }
}

TEST(Check, DeepModeCleanBackwardPasses) {
  DeepChecksGuard guard(true);
  Mat m(1, 2);
  m.at(0, 0) = 0.5f;
  m.at(0, 1) = -0.25f;
  const Tensor a = make_tensor(m, /*requires_grad=*/true);
  const Tensor loss = mse_loss(a, Mat(1, 2));  // scalar 1x1
  EXPECT_NO_THROW(backward(loss));
  EXPECT_TRUE(std::isfinite(a->grad.at(0, 0)));
}

TEST(Check, DeepModeOffByDefaultHere) {
  // The guard in other tests restores "off"; non-finite values flow through
  // unchecked in normal mode (performance contract of the hot path).
  Mat big(1, 1);
  big.at(0, 0) = 1e30f;
  const Tensor a = make_tensor(big);
  ASSERT_FALSE(deep_checks_enabled());
  EXPECT_NO_THROW(matmul(a, a));
}

// --- NETTAG_THREADS parsing --------------------------------------------------

TEST(ParseThreadCount, AcceptsPlainIntegers) {
  std::string warn;
  EXPECT_EQ(parse_thread_count("8", 4, &warn), 8);
  EXPECT_TRUE(warn.empty());
  EXPECT_EQ(parse_thread_count("1", 4, &warn), 1);
  EXPECT_TRUE(warn.empty());
}

TEST(ParseThreadCount, RejectsZeroNegativeAndGarbage) {
  for (const char* bad : {"0", "-3", "abc", "", "4x", "  ", "2.5"}) {
    std::string warn;
    EXPECT_EQ(parse_thread_count(bad, 4, &warn), 4) << bad;
    EXPECT_FALSE(warn.empty()) << bad;
    EXPECT_NE(warn.find("falling back to 4"), std::string::npos) << warn;
  }
}

TEST(ParseThreadCount, ClampsAbsurdValues) {
  std::string warn;
  EXPECT_EQ(parse_thread_count("1000", 4, &warn), 256);
  EXPECT_TRUE(warn.empty());  // clamped, not rejected
  EXPECT_EQ(parse_thread_count("99999999999999999999", 4, &warn), 4);
  EXPECT_FALSE(warn.empty());  // out of long range -> rejected
}

}  // namespace
}  // namespace nettag
