#include "analysis/lint.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <unordered_map>

#include "expr/expr.hpp"
#include "expr/tokenizer.hpp"
#include "model/graph.hpp"

namespace nettag {

namespace {

/// Cap on TG004 semantic comparisons per graph (cones are small; flat
/// circuits are sampled deterministically from node 0 upward).
constexpr std::size_t kMaxExprChecks = 256;

bool is_source_type(CellType t) {
  return t == CellType::kPort || t == CellType::kConst0 ||
         t == CellType::kConst1 || t == CellType::kDff;
}

/// True when the raw enum value is a member of CellType (a gate read from a
/// corrupted file or tampered in memory may carry anything).
bool known_type(const Gate& g) {
  return static_cast<unsigned>(g.type) <
         static_cast<unsigned>(kNumCellTypes);
}

std::string gate_obj(const Gate& g) {
  return (g.type == CellType::kDff ? "register " : "gate ") +
         (g.name.empty() ? "#" + std::to_string(g.id) : g.name);
}

// --- NL001: combinational loops via SCC --------------------------------------

/// Iterative Tarjan over the combinational subgraph (sources excluded: a
/// cycle through a DFF is legal sequential feedback). Reports one finding
/// per non-trivial SCC and per self-loop.
void rule_comb_loop(const Netlist& nl, LintReport& report) {
  const std::size_t n = nl.size();
  auto comb = [&](GateId id) {
    if (id < 0 || static_cast<std::size_t>(id) >= n) return false;
    const Gate& g = nl.gate(id);
    return known_type(g) && !is_source_type(g.type);
  };

  std::vector<int> index(n, -1), lowlink(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<GateId> stack;
  int next_index = 0;

  struct Frame {
    GateId v;
    std::size_t child;
  };

  auto emit = [&](const std::vector<GateId>& scc) {
    std::ostringstream members;
    for (std::size_t i = 0; i < scc.size() && i < 8; ++i) {
      if (i) members << ", ";
      members << nl.gate(scc[i]).name;
    }
    if (scc.size() > 8) members << ", ... (" << scc.size() << " gates)";
    report.add("NL001", Severity::kError, gate_obj(nl.gate(scc.front())),
               "combinational loop through {" + members.str() +
                   "}: no topological order exists, simulation and k-hop "
                   "expression extraction would not terminate");
  };

  for (std::size_t root = 0; root < n; ++root) {
    const GateId r = static_cast<GateId>(root);
    if (!comb(r) || index[root] >= 0) continue;
    std::vector<Frame> frames{{r, 0}};
    while (!frames.empty()) {
      Frame& f = frames.back();
      const std::size_t v = static_cast<std::size_t>(f.v);
      if (f.child == 0) {
        index[v] = lowlink[v] = next_index++;
        stack.push_back(f.v);
        on_stack[v] = 1;
      }
      const Gate& g = nl.gate(f.v);
      bool descended = false;
      while (f.child < g.fanins.size()) {
        const GateId w = g.fanins[f.child++];
        if (!comb(w)) continue;
        const std::size_t wi = static_cast<std::size_t>(w);
        if (index[wi] < 0) {
          frames.push_back({w, 0});
          descended = true;
          break;
        }
        if (on_stack[wi]) lowlink[v] = std::min(lowlink[v], index[wi]);
      }
      if (descended) continue;
      if (lowlink[v] == index[v]) {
        std::vector<GateId> scc;
        for (;;) {
          const GateId w = stack.back();
          stack.pop_back();
          on_stack[static_cast<std::size_t>(w)] = 0;
          scc.push_back(w);
          if (w == f.v) break;
        }
        const bool self_loop =
            scc.size() == 1 &&
            std::find(g.fanins.begin(), g.fanins.end(), f.v) != g.fanins.end();
        if (scc.size() > 1 || self_loop) {
          std::reverse(scc.begin(), scc.end());
          emit(scc);
        }
      }
      frames.pop_back();
      if (!frames.empty()) {
        const std::size_t p = static_cast<std::size_t>(frames.back().v);
        lowlink[p] = std::min(lowlink[p], lowlink[v]);
      }
    }
  }
}

// --- TG004 helper: the expression rendered into an attribute -----------------

/// Extracts the expression text from "... expr <name> = <expr>"; empty if
/// the attribute carries no expression clause.
std::string attr_expression(const std::string& attr) {
  const std::size_t at = attr.find(" expr ");
  if (at == std::string::npos) return "";
  const std::size_t eq = attr.find(" = ", at);
  if (eq == std::string::npos) return "";
  return attr.substr(eq + 3);
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> catalog = {
      {"NL001", "comb-loop", Severity::kError, "netlist",
       "combinational cycle (SCC over logic gates, DFF/port boundaries cut)"},
      {"NL002", "undriven-pin", Severity::kError, "netlist",
       "gate has fewer connected input pins than its cell arity (incl. "
       "registers whose D pin was never driven)"},
      {"NL003", "multi-driven-pin", Severity::kError, "netlist",
       "gate has more connected input pins than its cell arity (double "
       "driver on one pin)"},
      {"NL004", "floating-net", Severity::kWarning, "netlist",
       "combinational gate output drives nothing and is not a primary "
       "output (dead logic the cleanup pass should have swept; unused "
       "ports/registers/constants are legal in generated designs)"},
      {"NL005", "unknown-cell", Severity::kError, "netlist",
       "cell type value outside the library enum (corrupt load or tamper)"},
      {"NL006", "fanin-range", Severity::kError, "netlist",
       "fanin gate id out of range"},
      {"NL007", "fanout-bound", Severity::kWarning, "netlist",
       "fanout exceeds the lint bound (electrically implausible; the "
       "physical flow buffers such nets)"},
      {"NL008", "name-collision", Severity::kError, "netlist",
       "empty instance name or name index not mapping back to the gate"},
      {"NL009", "fanout-mismatch", Severity::kError, "netlist",
       "fanout list is not the multiset of sink input pins (graph "
       "corruption; replace_fanin/connect_register invariant broken)"},
      {"TG001", "attr-missing", Severity::kError, "tag",
       "node text attribute empty or not tokenizable"},
      {"TG002", "node-count", Severity::kError, "tag",
       "attribute/feature row count disagrees with the netlist node count"},
      {"TG003", "edge-range", Severity::kError, "tag",
       "edge endpoint outside [0, num_nodes)"},
      {"TG004", "expr-mismatch", Severity::kError, "tag",
       "rendered expression attribute is not semantically equal to the "
       "recomputed k-hop cone function (deep mode only)"},
      {"TG005", "phys-nonfinite", Severity::kError, "tag",
       "physical feature row contains NaN/Inf"},
      {"TG006", "edge-set", Severity::kError, "tag",
       "TAG edge set disagrees with the netlist's driver->sink edges"},
      {"LG001", "feat-nonfinite", Severity::kError, "layout",
       "layout node feature contains NaN/Inf"},
      {"LG002", "feat-negative", Severity::kError, "layout",
       "negative R/C/load/delay annotation"},
      {"LG003", "edge-range", Severity::kError, "layout",
       "layout edge endpoint outside [0, num_nodes)"},
      {"RT001", "missing-provenance", Severity::kWarning, "boundary",
       "register has no aligned RTL cone text (RTL->gate boundary broken)"},
      {"RT002", "stale-provenance", Severity::kWarning, "boundary",
       "RTL provenance entry names a register absent from the netlist"},
      {"RT003", "port-width-gap", Severity::kWarning, "boundary",
       "bus port bit indices are not dense 0..W-1 (RTL bus width does not "
       "match its gate-level expansion)"},
      {"DS001", "label-nonfinite", Severity::kError, "boundary",
       "non-finite training label (slack/clock/area/power/runtime)"},
      {"DS002", "cone-register-missing", Severity::kError, "boundary",
       "cone sample's register name not found as a DFF in its cone netlist"},
  };
  return catalog;
}

LintReport lint_netlist(const Netlist& nl, const LintOptions& options) {
  LintReport report;
  const std::size_t n = nl.size();
  bool any_unknown = false, any_range = false;

  for (const Gate& g : nl.gates()) {
    if (!known_type(g)) {
      any_unknown = true;
      if (options.enabled("NL005")) {
        report.add("NL005", Severity::kError, gate_obj(g),
                   "unknown cell type value " +
                       std::to_string(static_cast<int>(g.type)) +
                       " (library has " + std::to_string(kNumCellTypes) +
                       " cells)");
      }
      continue;  // arity/fanout rules need cell_info; skip this gate
    }
    const CellInfo& info = cell_info(g.type);

    bool fanins_ok = true;
    for (GateId f : g.fanins) {
      if (f < 0 || static_cast<std::size_t>(f) >= n) {
        fanins_ok = false;
        any_range = true;
        if (options.enabled("NL006")) {
          report.add("NL006", Severity::kError, gate_obj(g),
                     "fanin id " + std::to_string(f) + " outside [0, " +
                         std::to_string(n) + ")");
        }
      }
    }

    const int arity = info.num_inputs;
    const int pins = static_cast<int>(g.fanins.size());
    if (pins < arity && options.enabled("NL002")) {
      report.add("NL002", Severity::kError, gate_obj(g),
                 g.type == CellType::kDff
                     ? std::string("D pin never driven (deferred "
                                   "connect_register missing)")
                     : std::to_string(pins) + " of " + std::to_string(arity) +
                           " input pins of " + info.name + " connected");
    } else if (pins > arity && options.enabled("NL003")) {
      report.add("NL003", Severity::kError, gate_obj(g),
                 std::to_string(pins) + " drivers for the " +
                     std::to_string(arity) + "-pin cell " + info.name +
                     " (multi-driven pin)");
    }

    if (!info.sequential && g.type != CellType::kPort &&
        g.type != CellType::kConst0 && g.type != CellType::kConst1 &&
        g.fanouts.empty() && !g.is_primary_output && fanins_ok &&
        options.enabled("NL004")) {
      report.add("NL004", Severity::kWarning, gate_obj(g),
                 std::string("output net of ") + info.name +
                     " floats: drives no pin and is not a primary output");
    }

    if (g.fanouts.size() > options.max_fanout && options.enabled("NL007")) {
      report.add("NL007", Severity::kWarning, gate_obj(g),
                 "fanout " + std::to_string(g.fanouts.size()) +
                     " exceeds lint bound " +
                     std::to_string(options.max_fanout));
    }

    if (options.enabled("NL008")) {
      if (g.name.empty()) {
        report.add("NL008", Severity::kError, gate_obj(g),
                   "empty instance name");
      } else if (nl.find(g.name) != g.id) {
        report.add("NL008", Severity::kError, gate_obj(g),
                   "name index does not map '" + g.name +
                       "' back to this gate (duplicate name or broken "
                       "index)");
      }
    }
  }

  // NL009 needs every fanin in range and every type known, else it cascades.
  if (!any_range && !any_unknown && options.enabled("NL009")) {
    std::vector<std::size_t> pin_count(n, 0);
    for (const Gate& g : nl.gates()) {
      for (GateId f : g.fanins) pin_count[static_cast<std::size_t>(f)]++;
    }
    for (const Gate& g : nl.gates()) {
      if (g.fanouts.size() != pin_count[static_cast<std::size_t>(g.id)]) {
        report.add("NL009", Severity::kError, gate_obj(g),
                   "fanout list holds " + std::to_string(g.fanouts.size()) +
                       " entries but " +
                       std::to_string(pin_count[static_cast<std::size_t>(g.id)]) +
                       " sink pins reference this net");
      }
    }
  }

  if (!any_range && !any_unknown && options.enabled("NL001")) {
    rule_comb_loop(nl, report);
  }
  return report;
}

LintReport lint_tag(const Netlist& nl, const TagGraph& tag,
                    const LintOptions& options) {
  LintReport report;
  const int n = tag.num_nodes();

  if (options.enabled("TG002")) {
    if (static_cast<std::size_t>(n) != nl.size()) {
      report.add("TG002", Severity::kError, "graph",
                 std::to_string(n) + " text attributes for " +
                     std::to_string(nl.size()) + " netlist gates");
    }
    if (tag.phys.rows != n) {
      report.add("TG002", Severity::kError, "graph",
                 "x_phys has " + std::to_string(tag.phys.rows) +
                     " rows for " + std::to_string(n) + " nodes");
    } else if (n > 0 && tag.phys.cols != netlist_phys_feature_dim()) {
      report.add("TG002", Severity::kError, "graph",
                 "x_phys has " + std::to_string(tag.phys.cols) +
                     " columns, expected " +
                     std::to_string(netlist_phys_feature_dim()));
    }
  }

  if (options.enabled("TG001")) {
    for (int i = 0; i < n; ++i) {
      const std::string& attr = tag.attrs[static_cast<std::size_t>(i)];
      if (attr.empty() || tokenize_text(attr).empty()) {
        report.add("TG001", Severity::kError, "node " + std::to_string(i),
                   attr.empty() ? "empty text attribute"
                                : "attribute tokenizes to nothing");
      }
    }
  }

  if (options.enabled("TG003")) {
    for (const auto& [u, v] : tag.edges) {
      if (u < 0 || u >= n || v < 0 || v >= n) {
        report.add("TG003", Severity::kError,
                   "edge " + std::to_string(u) + "->" + std::to_string(v),
                   "endpoint outside [0, " + std::to_string(n) + ")");
      }
    }
  }

  if (options.enabled("TG005")) {
    for (int i = 0; i < tag.phys.rows; ++i) {
      for (int j = 0; j < tag.phys.cols; ++j) {
        if (!std::isfinite(tag.phys.at(i, j))) {
          report.add("TG005", Severity::kError, "node " + std::to_string(i),
                     "x_phys[" + std::to_string(j) + "] is not finite");
          break;  // one finding per row is enough
        }
      }
    }
  }

  // Deeper structural/semantic rules only make sense against a netlist that
  // itself lints clean (a combinational loop would not even topo-sort).
  const bool nl_clean = !lint_netlist(nl, options).has_errors();

  if (nl_clean && static_cast<std::size_t>(n) == nl.size() &&
      options.enabled("TG006")) {
    auto expected = netlist_edges(nl);
    auto actual = tag.edges;
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    if (expected != actual) {
      report.add("TG006", Severity::kError, "graph",
                 "edge set disagrees with the netlist (" +
                     std::to_string(actual.size()) + " TAG edges vs " +
                     std::to_string(expected.size()) +
                     " netlist driver->sink edges)");
    }
  }

  if (options.deep && nl_clean && static_cast<std::size_t>(n) == nl.size() &&
      options.enabled("TG004")) {
    std::size_t checked = 0;
    for (int i = 0; i < n && checked < kMaxExprChecks; ++i) {
      const Gate& g = nl.gate(static_cast<GateId>(i));
      const std::string text =
          attr_expression(tag.attrs[static_cast<std::size_t>(i)]);
      if (text.empty()) continue;
      ++checked;
      std::string why;
      try {
        const ExprPtr claimed = parse_expr(text);
        const ExprPtr actual =
            khop_expression(nl, g.id, options.k_hop);
        if (!semantically_equal(claimed, actual)) {
          why = "attribute claims '" + text +
                "' but the recomputed " + std::to_string(options.k_hop) +
                "-hop cone function is '" + to_string(actual) + "'";
        }
      } catch (const std::exception& e) {
        why = "attribute expression '" + text +
              "' does not parse: " + e.what();
      }
      if (!why.empty()) {
        report.add("TG004", Severity::kError, gate_obj(g), why);
      }
    }
  }
  return report;
}

LintReport lint_layout(const LayoutGraph& lg, const LintOptions& options) {
  LintReport report;
  const int n = static_cast<int>(lg.node_feats.size());
  static const char* kFeatName[6] = {"wire_cap", "wire_res", "load",
                                     "stage_delay", "x", "y"};
  for (int i = 0; i < n; ++i) {
    const auto& f = lg.node_feats[static_cast<std::size_t>(i)];
    for (std::size_t j = 0; j < f.size(); ++j) {
      if (!std::isfinite(f[j]) && options.enabled("LG001")) {
        report.add("LG001", Severity::kError, "node " + std::to_string(i),
                   std::string(kFeatName[j]) + " is not finite");
      } else if (j < 4 && f[j] < 0.0 && options.enabled("LG002")) {
        report.add("LG002", Severity::kError, "node " + std::to_string(i),
                   std::string(kFeatName[j]) + " = " + std::to_string(f[j]) +
                       " is negative (parasitics and delays cannot be)");
      }
    }
  }
  if (options.enabled("LG003")) {
    for (const auto& [u, v] : lg.edges) {
      if (u < 0 || u >= n || v < 0 || v >= n) {
        report.add("LG003", Severity::kError,
                   "edge " + std::to_string(u) + "->" + std::to_string(v),
                   "endpoint outside [0, " + std::to_string(n) + ")");
      }
    }
  }
  return report;
}

namespace {

/// RT003: every multi-bit port bus "base[i]" must cover indices 0..W-1.
void rule_port_width(const Netlist& nl, LintReport& report,
                     const LintOptions& options) {
  if (!options.enabled("RT003")) return;
  struct BusBits {
    std::unordered_set<long> seen;
    long max_index = -1;
  };
  std::unordered_map<std::string, BusBits> buses;
  for (const Gate& g : nl.gates()) {
    if (g.type != CellType::kPort) continue;
    const std::size_t lb = g.name.find('[');
    if (lb == std::string::npos || g.name.back() != ']') continue;
    const std::string digits = g.name.substr(lb + 1, g.name.size() - lb - 2);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    BusBits& b = buses[g.name.substr(0, lb)];
    const long idx = std::stol(digits);
    b.seen.insert(idx);
    b.max_index = std::max(b.max_index, idx);
  }
  for (const auto& [base, bits] : buses) {
    if (static_cast<long>(bits.seen.size()) != bits.max_index + 1) {
      report.add("RT003", Severity::kWarning, "port bus " + base,
                 "bit indices cover " + std::to_string(bits.seen.size()) +
                     " of 0.." + std::to_string(bits.max_index) +
                     " — RTL bus width does not match its gate-level "
                     "expansion");
    }
  }
}

bool finite(double v) { return std::isfinite(v); }

}  // namespace

LintReport lint_design(const DesignSample& design, const LintOptions& options) {
  LintReport report;
  const Netlist& nl = design.gen.netlist;
  report.merge(lint_netlist(nl, options), "netlist");
  rule_port_width(nl, report, options);

  if (options.enabled("RT001")) {
    for (GateId r : nl.registers()) {
      if (!design.gen.reg_rtl.count(nl.gate(r).name)) {
        report.add("RT001", Severity::kWarning, gate_obj(nl.gate(r)),
                   "no aligned RTL cone text for this register");
      }
    }
  }
  if (options.enabled("RT002")) {
    for (const auto& [name, text] : design.gen.reg_rtl) {
      (void)text;
      const GateId id = nl.find(name);
      if (id == kNoGate || nl.gate(id).type != CellType::kDff) {
        report.add("RT002", Severity::kWarning, "register " + name,
                   "RTL provenance entry has no matching DFF in the "
                   "netlist");
      }
    }
  }

  if (options.enabled("DS001")) {
    const double labels[] = {design.area_wo_opt, design.power_wo_opt,
                             design.area_w_opt,  design.power_w_opt,
                             design.tool_area,   design.tool_power,
                             design.pr_runtime_seconds};
    for (double v : labels) {
      if (!finite(v)) {
        report.add("DS001", Severity::kError, "design labels",
                   "non-finite circuit-level label");
        break;
      }
    }
  }

  for (const ConeSample& cone : design.cones) {
    const std::string ctx = "cone " + cone.register_name;
    report.merge(lint_netlist(cone.cone, options), ctx);
    if (options.enabled("DS002")) {
      const GateId r = cone.cone.find(cone.register_name);
      if (r == kNoGate || cone.cone.gate(r).type != CellType::kDff) {
        report.add("DS002", Severity::kError, ctx,
                   "register '" + cone.register_name +
                       "' is not a DFF of its own cone netlist");
      }
    }
    if (options.enabled("DS001") &&
        (!finite(cone.slack_label) || !finite(cone.clock_period))) {
      report.add("DS001", Severity::kError, ctx,
                 "non-finite slack/clock label");
    }
    if (cone.has_layout) {
      report.merge(lint_layout(cone.layout, options), ctx);
    }
  }
  return report;
}

LintReport lint_corpus(const Corpus& corpus, const LintOptions& options) {
  LintReport report;
  for (const DesignSample& d : corpus.designs) {
    report.merge(lint_design(d, options), d.gen.netlist.name());
  }
  return report;
}

}  // namespace nettag
