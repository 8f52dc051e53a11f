// Corpus assembly: generates the multi-family design corpus, chunks it into
// register cones, runs the physical flow twice per design (w/o and w/ layout
// optimization) to collect all labels, and pairs every cone with its aligned
// RTL text and layout graph for cross-stage pre-training (paper §III-A and
// Table II).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/cone.hpp"
#include "physical/flow.hpp"
#include "rtlgen/generator.hpp"

namespace nettag {

struct CorpusOptions {
  int designs_per_family = 5;
  int k_hop = 2;              ///< symbolic expression depth
  bool with_physical = true;  ///< run the physical flow for labels
  int placement_passes = 4;
};

/// One register cone plus all cross-stage artifacts and labels.
struct ConeSample {
  Netlist cone;              ///< pre-layout cone netlist (model input)
  std::string rtl_text;      ///< aligned RTL statements driving the register
  LayoutGraph layout;        ///< aligned post-layout cone graph
  std::string family;
  std::string design;
  std::string register_name;
  bool is_state_reg = false;       ///< Task 2 label
  double slack_label = 0.0;        ///< Task 3 label: sign-off endpoint slack, ns
  double clock_period = 0.0;       ///< design clock constraint, ns (an input,
                                   ///< not a label: known at netlist stage)
  bool has_layout = false;
};

/// One full design plus circuit-level labels.
struct DesignSample {
  GeneratedDesign gen;
  std::vector<ConeSample> cones;
  // Task 4 labels (post-layout) and the synthesis-tool estimates.
  double area_wo_opt = 0, power_wo_opt = 0;
  double area_w_opt = 0, power_w_opt = 0;
  double tool_area = 0, tool_power = 0;
  double pr_runtime_seconds = 0;   ///< measured flow runtime (Table VI)
};

struct Corpus {
  std::vector<DesignSample> designs;
  std::vector<std::string> families;
};

/// Builds the corpus. Deterministic given `rng`'s seed.
Corpus build_corpus(const CorpusOptions& options, Rng& rng);

/// Assembles one DesignSample from an already-generated design: runs the
/// physical flow (when enabled) and chunks the netlist into labelled register
/// cones. Consumes exactly one `rng.fork()` when `options.with_physical` —
/// the per-design unit both build_corpus and the streaming shard builder
/// (core/corpus_stream.hpp) are made of.
DesignSample make_design_sample(GeneratedDesign gen,
                                const CorpusOptions& options, Rng& rng);

/// k-hop symbolic expressions of every logic gate of `cone`, in the cone's
/// gate order (non-logic gates are skipped). This is the single place the
/// expressions are derived: dataset collection, Table II statistics, and the
/// shard embed stage all consume this product instead of re-deriving
/// `khop_expression` gate-by-gate on their own.
std::vector<std::string> cone_expressions(const Netlist& cone, int k_hop);

/// Expressions of every cone of one design, `[cone]` parallel to
/// `design.cones[c]`.
std::vector<std::vector<std::string>> design_expressions(
    const DesignSample& design, int k_hop);

/// Expressions of every cone of every design, computed once and shared.
/// Indexing: `[design][cone]` parallel to `corpus.designs[d].cones[c]`.
using CorpusExpressions = std::vector<std::vector<std::vector<std::string>>>;
CorpusExpressions corpus_expressions(const Corpus& corpus, int k_hop);

/// Collects k-hop symbolic expressions from every logic gate of every cone —
/// the ExprLLM pre-training dataset (paper: 313k expressions; scaled here).
/// `max_per_design` caps per-design contribution to keep families balanced.
std::vector<std::string> collect_expressions(const Corpus& corpus, int k_hop,
                                             std::size_t max_per_design = 400);

/// Same, over a precomputed expression index (no recompute).
std::vector<std::string> collect_expressions(const Corpus& corpus,
                                             const CorpusExpressions& exprs,
                                             std::size_t max_per_design = 400);

/// Table II row: per-family dataset statistics.
struct FamilyStats {
  std::string family;
  std::size_t expr_count = 0;
  double avg_expr_tokens = 0;
  std::size_t cone_count = 0;
  double avg_cone_nodes = 0;
};

std::vector<FamilyStats> corpus_statistics(const Corpus& corpus, int k_hop);

/// Same, over a precomputed expression index (no recompute). Totals are
/// identical to the k_hop overload by construction.
std::vector<FamilyStats> corpus_statistics(const Corpus& corpus,
                                           const CorpusExpressions& exprs);

}  // namespace nettag
