#include "core/dataset.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/lint.hpp"
#include "expr/expr.hpp"
#include "expr/tokenizer.hpp"
#include "model/graph.hpp"

namespace nettag {

namespace {

/// Builds the layout graph of one register cone from the implemented
/// (post-layout) netlist: nodes/edges follow the implemented cone, features
/// come from placement/parasitics/timing of the full implementation.
LayoutGraph cone_layout_graph(const PhysicalResult& flow, GateId register_id,
                              const std::vector<std::size_t>& topo_position) {
  const RegisterCone rc = extract_cone(flow.implemented, register_id,
                                       kMaxConeGates, topo_position);
  LayoutGraph lg;
  lg.node_feats.resize(rc.cone.size());
  for (const Gate& g : rc.cone.gates()) {
    const GateId parent = rc.to_parent.at(g.id);
    const std::size_t p = static_cast<std::size_t>(parent);
    const NetParasitics& net = flow.parasitics.nets[p];
    lg.node_feats[static_cast<std::size_t>(g.id)] = {
        net.wire_cap,        net.wire_res,         net.load(),
        flow.timing.gate_delay[p], flow.placement.x[p], flow.placement.y[p]};
  }
  for (const auto& [u, v] : netlist_edges(rc.cone)) lg.edges.emplace_back(u, v);
  return lg;
}

}  // namespace

DesignSample make_design_sample(GeneratedDesign gen,
                                const CorpusOptions& options, Rng& rng) {
  DesignSample sample;
  sample.gen = std::move(gen);
  const Netlist& nl = sample.gen.netlist;

  PhysicalResult flow_opt;
  if (options.with_physical) {
    // Netlist-stage estimates (the synthesis "EDA tool" columns).
    const ToolEstimate tool = synthesis_estimate(nl);
    sample.tool_area = tool.area;
    sample.tool_power = tool.power;
    // Two label scenarios: plain P&R and optimizing P&R.
    Rng flow_rng = rng.fork();
    const PhysicalResult flow_plain = run_physical_flow(
        nl, flow_rng, /*optimize=*/false, 0.0, options.placement_passes);
    flow_opt = run_physical_flow(nl, flow_rng, /*optimize=*/true, 0.0,
                                 options.placement_passes);
    sample.area_wo_opt = flow_plain.area.total_area;
    sample.power_wo_opt = flow_plain.power.total();
    sample.area_w_opt = flow_opt.area.total_area;
    sample.power_w_opt = flow_opt.power.total();
    // The runtime label must be reproducible: shard bytes have to be
    // identical across a kill/resume of the corpus builder, so a measured
    // wall-clock value cannot be stored. Model the P&R runtime from the
    // work the placer actually performs (passes x gates x log gates per
    // flow run, two runs), calibrated to the same order of magnitude as
    // the measured figures.
    const double work = static_cast<double>(nl.size());
    sample.pr_runtime_seconds = 2e-7 *
                                static_cast<double>(options.placement_passes) *
                                work * std::log2(work + 2.0) * 2.0;
  }

  // Chunk into register cones (model inputs come from the *pre-layout*
  // netlist; labels come from the optimized implementation).
  const std::vector<std::size_t> position = topo_positions(nl);
  const std::vector<std::size_t> impl_position =
      options.with_physical ? topo_positions(flow_opt.implemented)
                            : std::vector<std::size_t>();
  for (GateId r : nl.registers()) {
    ConeSample cone;
    const RegisterCone rc = extract_cone(nl, r, kMaxConeGates, position);
    cone.cone = rc.cone;
    cone.family = nl.source();
    cone.design = nl.name();
    cone.register_name = nl.gate(r).name;
    cone.is_state_reg = nl.gate(r).is_state_reg;
    auto it = sample.gen.reg_rtl.find(cone.register_name);
    if (it != sample.gen.reg_rtl.end()) cone.rtl_text = it->second;
    if (options.with_physical) {
      const GateId impl_reg = flow_opt.implemented.find(cone.register_name);
      if (impl_reg != kNoGate) {
        cone.clock_period = flow_opt.timing.clock_period;
        cone.slack_label =
            flow_opt.timing.slack[static_cast<std::size_t>(impl_reg)];
        cone.layout = cone_layout_graph(flow_opt, impl_reg, impl_position);
        cone.has_layout = true;
      }
    }
    sample.cones.push_back(std::move(cone));
  }
  return sample;
}

Corpus build_corpus(const CorpusOptions& options, Rng& rng) {
  Corpus corpus;
  for (const FamilyProfile& profile : benchmark_families()) {
    corpus.families.push_back(profile.name);
    for (int d = 0; d < options.designs_per_family; ++d) {
      GeneratedDesign gen = generate_design(
          profile, rng, profile.name + "_d" + std::to_string(d));
      corpus.designs.push_back(
          make_design_sample(std::move(gen), options, rng));
    }
  }
  // Dataset-assembly lint seam: cheap structural + boundary + label rules
  // over every design, cone, and layout graph before anything trains on
  // them. Deep (semantic) rules stay off here; `nettag_lint --deep` and the
  // CI gate run them.
  enforce_clean(lint_corpus(corpus), "corpus assembly");
  return corpus;
}

std::vector<std::string> cone_expressions(const Netlist& cone, int k_hop) {
  std::vector<std::string> out;
  for (const Gate& g : cone.gates()) {
    if (gate_class_of(g.type) < 0) continue;  // logic gates only
    out.push_back(to_string(khop_expression(cone, g.id, k_hop)));
  }
  return out;
}

std::vector<std::vector<std::string>> design_expressions(
    const DesignSample& design, int k_hop) {
  std::vector<std::vector<std::string>> exprs;
  exprs.reserve(design.cones.size());
  for (const ConeSample& c : design.cones) {
    exprs.push_back(cone_expressions(c.cone, k_hop));
  }
  return exprs;
}

CorpusExpressions corpus_expressions(const Corpus& corpus, int k_hop) {
  CorpusExpressions exprs;
  exprs.reserve(corpus.designs.size());
  for (const DesignSample& d : corpus.designs) {
    exprs.push_back(design_expressions(d, k_hop));
  }
  return exprs;
}

std::vector<std::string> collect_expressions(const Corpus& corpus,
                                             const CorpusExpressions& exprs,
                                             std::size_t max_per_design) {
  std::vector<std::string> out;
  for (std::size_t d = 0; d < corpus.designs.size(); ++d) {
    std::size_t taken = 0;
    for (const std::vector<std::string>& cone : exprs[d]) {
      for (const std::string& e : cone) {
        if (taken >= max_per_design) break;
        out.push_back(e);
        ++taken;
      }
      if (taken >= max_per_design) break;
    }
  }
  return out;
}

std::vector<std::string> collect_expressions(const Corpus& corpus, int k_hop,
                                             std::size_t max_per_design) {
  // Lazy per-cone variant: stops deriving expressions once a design's cap is
  // reached instead of materializing the full corpus index first.
  std::vector<std::string> out;
  for (const DesignSample& d : corpus.designs) {
    std::size_t taken = 0;
    for (const ConeSample& c : d.cones) {
      if (taken >= max_per_design) break;
      for (std::string& e : cone_expressions(c.cone, k_hop)) {
        if (taken >= max_per_design) break;
        out.push_back(std::move(e));
        ++taken;
      }
    }
  }
  return out;
}

std::vector<FamilyStats> corpus_statistics(const Corpus& corpus,
                                           const CorpusExpressions& exprs) {
  std::vector<FamilyStats> stats;
  for (const std::string& family : corpus.families) {
    FamilyStats fs;
    fs.family = family;
    double token_sum = 0, node_sum = 0;
    for (std::size_t d = 0; d < corpus.designs.size(); ++d) {
      const DesignSample& ds = corpus.designs[d];
      if (ds.gen.netlist.source() != family) continue;
      for (std::size_t c = 0; c < ds.cones.size(); ++c) {
        fs.cone_count += 1;
        node_sum += static_cast<double>(ds.cones[c].cone.size());
        for (const std::string& expr : exprs[d][c]) {
          token_sum += static_cast<double>(tokenize_text(expr).size());
          fs.expr_count += 1;
        }
      }
    }
    if (fs.expr_count) fs.avg_expr_tokens = token_sum / static_cast<double>(fs.expr_count);
    if (fs.cone_count) fs.avg_cone_nodes = node_sum / static_cast<double>(fs.cone_count);
    stats.push_back(fs);
  }
  return stats;
}

std::vector<FamilyStats> corpus_statistics(const Corpus& corpus, int k_hop) {
  return corpus_statistics(corpus, corpus_expressions(corpus, k_hop));
}

}  // namespace nettag
