// NetTAG-Lint: rule-based static analysis over the three data layers the
// pipeline moves between — gate-level netlists, text-attributed graphs, and
// layout graphs — plus dataset-level RTL↔netlist boundary checks.
//
// Motivation (see docs/ARCHITECTURE.md §6): cross-stage alignment silently
// degrades when a generated netlist has combinational loops, floating nets,
// or cone/expression attribute drift. Lint is the DRC/LVS analog run before
// data reaches pre-training: structural errors throw at the pipeline seams
// (rtlgen, physical flow, corpus assembly), and the standalone `nettag_lint`
// tool gates CI on serialized datasets.
//
// Rules never throw on broken input (that is their job to report), never
// call Netlist::validate()/topo_order() (which throw), and degrade
// gracefully: a gate with an unknown cell type is reported once and skipped
// by arity/loop analysis instead of cascading.
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "core/dataset.hpp"
#include "core/tag.hpp"
#include "netlist/netlist.hpp"
#include "physical/analysis.hpp"

namespace nettag {

struct LintOptions {
  /// NL007 bound: fanouts above this are flagged (generated designs peak
  /// well below; the physical flow buffers heavy nets down to 4-8).
  std::size_t max_fanout = 64;
  /// TG004 recompute depth — must match the k used to build the TAG.
  int k_hop = 2;
  /// Enables the expensive semantic rules (TG004 cone/expression
  /// equivalence). Off by default at pipeline seams; on in `nettag_lint
  /// --deep` and the deep CI gate.
  bool deep = false;
  /// Rule ids to skip (e.g. {"NL004"} to allow dead logic).
  std::unordered_set<std::string> disabled;

  bool enabled(const char* rule) const { return !disabled.count(rule); }
};

/// One row of the rule catalog (docs/ARCHITECTURE.md §6 mirrors this).
struct RuleInfo {
  const char* id;
  const char* name;
  Severity severity;
  const char* family;       ///< "netlist" | "tag" | "layout" | "boundary"
  const char* description;
};

/// Every registered rule, in id order.
const std::vector<RuleInfo>& rule_catalog();

// --- rule families -----------------------------------------------------------

/// Netlist structural rules (NL001-NL009): combinational loops (SCC),
/// undriven input pins, multi-driven pins, floating combinational outputs,
/// unknown cell types, fanin range, fanout bound, name-index integrity,
/// fanin/fanout multiset consistency.
LintReport lint_netlist(const Netlist& nl, const LintOptions& options = {});

/// TAG consistency rules (TG001-TG006): attribute presence/tokenizability,
/// node-count agreement, edge ranges, physical-feature finiteness, edge-set
/// agreement with the source netlist, and (deep) semantic equivalence of the
/// rendered expression attribute against the recomputed k-hop cone function.
LintReport lint_tag(const Netlist& nl, const TagGraph& tag,
                    const LintOptions& options = {});

/// Layout-graph rules (LG001-LG003): finite features, non-negative
/// R/C/load/delay annotations, edge ranges.
LintReport lint_layout(const LayoutGraph& lg, const LintOptions& options = {});

/// RTL→gate boundary and label rules for one design (RT001-RT003, DS001)
/// plus structural lint of the design netlist, every cone netlist, and
/// every attached layout graph.
LintReport lint_design(const DesignSample& design,
                       const LintOptions& options = {});

/// Whole-corpus lint: lint_design over every design, objects prefixed with
/// the design name.
LintReport lint_corpus(const Corpus& corpus, const LintOptions& options = {});

}  // namespace nettag
