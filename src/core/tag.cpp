#include "core/tag.hpp"

#include "expr/expr.hpp"
#include "expr/tokenizer.hpp"
#include "model/graph.hpp"
#include "physical/analysis.hpp"

namespace nettag {

std::string gate_text_attribute(const Netlist& nl, GateId id, int k_hop,
                                double toggle, double prob) {
  const Gate& g = nl.gate(id);
  const CellInfo& info = cell_info(g.type);
  const bool has_expr = g.type != CellType::kPort &&
                        g.type != CellType::kConst0 &&
                        g.type != CellType::kConst1;
  const std::string expr =
      has_expr ? to_string(khop_expression(nl, id, k_hop)) : std::string();
  std::string out;
  out.reserve(160 + 2 * g.name.size() + expr.size());
  const auto field = [&out](const char* key, const std::string& bucket) {
    out += key;
    out += bucket;
  };
  // Physical characteristics first (bucketized on log scales spanning the
  // library) so they survive truncation when the expression is long.
  out += "gate ";
  out += g.name;
  out += " type ";
  out += info.name;
  field(" phys area ", bucket_token(info.area, 0.5, 5.0));
  field(" leak ", bucket_token(info.leakage, 1.0, 10.0));
  field(" cap ", bucket_token(info.input_cap, 1.0, 3.0));
  field(" drive ", bucket_token(info.drive_res, 0.05, 0.2));
  field(" delay ", bucket_token(info.intrinsic_delay + 1e-4, 0.005, 0.1));
  field(" fanout ",
        bucket_token(static_cast<double>(g.fanouts.size()) + 1.0, 1.0, 32.0));
  field(" toggle ", bucket_token(toggle + 1e-3, 1e-3, 1.0));
  field(" prob ", bucket_token(prob + 1e-3, 1e-3, 1.0));
  if (has_expr) {
    out += " expr ";
    out += g.name;
    out += " = ";
    out += expr;
  }
  return out;
}

TagGraph build_tag(const Netlist& nl, int k_hop) {
  TagGraph tag;
  tag.attrs.reserve(nl.size());
  const PowerReport activity = netlist_stage_power(nl);
  for (const Gate& g : nl.gates()) {
    tag.attrs.push_back(gate_text_attribute(
        nl, g.id, k_hop, activity.toggle[static_cast<std::size_t>(g.id)],
        activity.prob[static_cast<std::size_t>(g.id)]));
  }
  tag.phys = netlist_phys_features(nl, activity);
  tag.edges = netlist_edges(nl);
  return tag;
}

}  // namespace nettag
