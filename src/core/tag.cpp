#include "core/tag.hpp"

#include <sstream>

#include "expr/expr.hpp"
#include "expr/tokenizer.hpp"
#include "model/graph.hpp"
#include "physical/analysis.hpp"

namespace nettag {

std::string gate_text_attribute(const Netlist& nl, GateId id, int k_hop) {
  const PowerReport activity = netlist_stage_power(nl);
  return gate_text_attribute(nl, id, k_hop,
                             activity.toggle[static_cast<std::size_t>(id)],
                             activity.prob[static_cast<std::size_t>(id)]);
}

std::string gate_text_attribute(const Netlist& nl, GateId id, int k_hop,
                                double toggle, double prob) {
  const Gate& g = nl.gate(id);
  const CellInfo& info = cell_info(g.type);
  std::ostringstream out;
  // Physical characteristics first (bucketized on log scales spanning the
  // library) so they survive truncation when the expression is long.
  out << "gate " << g.name << " type " << info.name                //
      << " phys area " << bucket_token(info.area, 0.5, 5.0)        //
      << " leak " << bucket_token(info.leakage, 1.0, 10.0)         //
      << " cap " << bucket_token(info.input_cap, 1.0, 3.0)         //
      << " drive " << bucket_token(info.drive_res, 0.05, 0.2)      //
      << " delay " << bucket_token(info.intrinsic_delay + 1e-4, 0.005, 0.1)
      << " fanout " << bucket_token(static_cast<double>(g.fanouts.size()) + 1.0,
                                    1.0, 32.0)
      << " toggle " << bucket_token(toggle + 1e-3, 1e-3, 1.0)  //
      << " prob " << bucket_token(prob + 1e-3, 1e-3, 1.0);
  if (g.type != CellType::kPort && g.type != CellType::kConst0 &&
      g.type != CellType::kConst1) {
    out << " expr " << g.name << " = "
        << to_string(khop_expression(nl, id, k_hop));
  }
  return out.str();
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
