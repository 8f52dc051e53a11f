#include "netlist/aig.hpp"

#include <string>

namespace nettag {

namespace {

/// Builder that creates AND/INV nodes with fresh names, tagging each new
/// node with the RTL-block label of the gate it came from.
class AigBuilder {
 public:
  explicit AigBuilder(Netlist& out) : out_(out) {}

  void set_label(const std::string& label) { label_ = label; }

  GateId mk_inv(GateId a) {
    const GateId id = out_.add_gate(CellType::kInv, fresh("n"), {a});
    out_.gate(id).rtl_block = label_;
    return id;
  }

  GateId mk_and(GateId a, GateId b) {
    const GateId id = out_.add_gate(CellType::kAnd2, fresh("n"), {a, b});
    out_.gate(id).rtl_block = label_;
    return id;
  }

  GateId mk_or(GateId a, GateId b) { return mk_inv(mk_and(mk_inv(a), mk_inv(b))); }

  GateId mk_xor(GateId a, GateId b) {
    // a^b = !(a&b) & !( !a & !b )
    return mk_and(mk_inv(mk_and(a, b)), mk_inv(mk_and(mk_inv(a), mk_inv(b))));
  }

  GateId mk_and_all(const std::vector<GateId>& xs) {
    GateId acc = xs[0];
    for (std::size_t i = 1; i < xs.size(); ++i) acc = mk_and(acc, xs[i]);
    return acc;
  }

  GateId mk_or_all(const std::vector<GateId>& xs) {
    GateId acc = xs[0];
    for (std::size_t i = 1; i < xs.size(); ++i) acc = mk_or(acc, xs[i]);
    return acc;
  }

 private:
  std::string fresh(const char* prefix) {
    return std::string(prefix) + std::to_string(counter_++);
  }

  Netlist& out_;
  std::string label_;
  int counter_ = 0;
};

}  // namespace

AigResult to_aig(const Netlist& nl) {
  AigResult res;
  res.aig.set_name(nl.name() + "_aig");
  res.aig.set_source(nl.source());
  AigBuilder b(res.aig);

  // Pass 1: sources. DFF D-pins are wired to a placeholder constant because
  // their driving logic is converted only in pass 2; pass 3 rewires them.
  GateId placeholder = kNoGate;
  for (const Gate& g : nl.gates()) {
    switch (g.type) {
      case CellType::kPort: {
        const GateId out = res.aig.add_port(g.name);
        res.aig.gate(out).rtl_block = g.rtl_block;
        res.node_of[g.id] = out;
        break;
      }
      case CellType::kConst0:
      case CellType::kConst1:
        res.node_of[g.id] = res.aig.add_gate(g.type, g.name, {});
        break;
      case CellType::kDff: {
        if (placeholder == kNoGate) {
          placeholder =
              res.aig.add_gate(CellType::kConst0, "__aig_dff_placeholder", {});
        }
        const GateId out =
            res.aig.add_gate(CellType::kDff, g.name, {placeholder});
        Gate& ng = res.aig.gate(out);
        ng.rtl_block = g.rtl_block;
        ng.is_state_reg = g.is_state_reg;
        res.node_of[g.id] = out;
        break;
      }
      default:
        break;  // combinational: pass 2
    }
  }

  // Pass 2: combinational logic in topological order.
  for (GateId id : nl.topo_order()) {
    const Gate& g = nl.gate(id);
    if (res.node_of.count(id)) {
      if (g.is_primary_output) res.aig.mark_output(res.node_of.at(id));
      continue;  // source handled in pass 1
    }
    b.set_label(g.rtl_block);
    std::vector<GateId> in;
    in.reserve(g.fanins.size());
    for (GateId f : g.fanins) in.push_back(res.node_of.at(f));

    GateId out = kNoGate;
    switch (g.type) {
      case CellType::kPort:
      case CellType::kConst0:
      case CellType::kConst1:
      case CellType::kDff:
        break;  // unreachable: handled in pass 1
      case CellType::kInv:
        out = b.mk_inv(in[0]);
        break;
      case CellType::kBuf:
        // Buffers vanish: the AIG node is simply the fanin's node.
        out = in[0];
        break;
      case CellType::kAnd2:
      case CellType::kAnd3:
      case CellType::kAnd4:
        out = b.mk_and_all(in);
        break;
      case CellType::kNand2:
      case CellType::kNand3:
      case CellType::kNand4:
        out = b.mk_inv(b.mk_and_all(in));
        break;
      case CellType::kOr2:
      case CellType::kOr3:
      case CellType::kOr4:
        out = b.mk_or_all(in);
        break;
      case CellType::kNor2:
      case CellType::kNor3:
      case CellType::kNor4:
        out = b.mk_inv(b.mk_or_all(in));
        break;
      case CellType::kXor2:
        out = b.mk_xor(in[0], in[1]);
        break;
      case CellType::kXnor2:
        out = b.mk_inv(b.mk_xor(in[0], in[1]));
        break;
      case CellType::kMux2:
        // S ? B : A = (!S&A) | (S&B)
        out = b.mk_or(b.mk_and(b.mk_inv(in[2]), in[0]), b.mk_and(in[2], in[1]));
        break;
      case CellType::kAoi21:
        out = b.mk_inv(b.mk_or(b.mk_and(in[0], in[1]), in[2]));
        break;
      case CellType::kAoi22:
        out = b.mk_inv(b.mk_or(b.mk_and(in[0], in[1]), b.mk_and(in[2], in[3])));
        break;
      case CellType::kOai21:
        out = b.mk_inv(b.mk_and(b.mk_or(in[0], in[1]), in[2]));
        break;
      case CellType::kOai22:
        out = b.mk_inv(b.mk_and(b.mk_or(in[0], in[1]), b.mk_or(in[2], in[3])));
        break;
      case CellType::kMaj3:
        out = b.mk_or(b.mk_or(b.mk_and(in[0], in[1]), b.mk_and(in[0], in[2])),
                      b.mk_and(in[1], in[2]));
        break;
    }
    if (g.is_primary_output) res.aig.mark_output(out);
    res.node_of[id] = out;
  }

  // Pass 3: rewire DFF D-pins from the placeholder to the converted logic.
  for (const Gate& g : nl.gates()) {
    if (g.type != CellType::kDff) continue;
    res.aig.replace_fanin(res.node_of.at(g.id), placeholder,
                          res.node_of.at(g.fanins[0]));
  }
  return res;
}

}  // namespace nettag
