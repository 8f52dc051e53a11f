#include "netlist/cone.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <unordered_set>

#include "analysis/check.hpp"

namespace nettag {

namespace {

bool is_boundary(CellType t) {
  return t == CellType::kPort || t == CellType::kDff;
}

}  // namespace

std::vector<std::size_t> topo_positions(const Netlist& nl) {
  std::vector<std::size_t> position(nl.size());
  const std::vector<GateId> order = nl.topo_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    position[static_cast<std::size_t>(order[i])] = i;
  }
  return position;
}

RegisterCone extract_cone(const Netlist& nl, GateId register_id,
                          std::size_t max_gates) {
  return extract_cone(nl, register_id, max_gates, topo_positions(nl));
}

RegisterCone extract_cone(const Netlist& nl, GateId register_id,
                          std::size_t max_gates,
                          const std::vector<std::size_t>& topo_position) {
  NETTAG_CHECK(topo_position.size() == nl.size(),
               "extract_cone: " + std::to_string(topo_position.size()) +
                   " topological positions for " + std::to_string(nl.size()) +
                   " gates");
  const Gate& reg = nl.gate(register_id);
  if (reg.type != CellType::kDff) {
    throw std::invalid_argument("extract_cone: not a register: " + reg.name);
  }

  // Backward BFS from the D pin through combinational logic.
  std::unordered_set<GateId> logic;     // interior combinational gates
  std::unordered_set<GateId> boundary;  // PORT/DFF leaves feeding the cone
  std::deque<GateId> frontier;
  auto enqueue = [&](GateId id) {
    const Gate& g = nl.gate(id);
    // Registers are always boundaries — including this cone's own register
    // when its next-state logic feeds back on its Q output (counters, FSMs).
    if (is_boundary(g.type)) {
      boundary.insert(id);
    } else if (!logic.count(id)) {
      logic.insert(id);
      frontier.push_back(id);
    }
  };
  enqueue(reg.fanins[0]);
  while (!frontier.empty()) {
    const GateId id = frontier.front();
    frontier.pop_front();
    if (max_gates && logic.size() >= max_gates) {
      // Cap reached: unexplored fanins of remaining gates become boundaries.
      break;
    }
    for (GateId f : nl.gate(id).fanins) enqueue(f);
  }
  // Any fanin of an interior gate that was never classified becomes a
  // boundary — except constants, which are cheap to copy into the cone.
  std::unordered_set<GateId> extra_consts;
  for (GateId id : logic) {
    for (GateId f : nl.gate(id).fanins) {
      if (logic.count(f)) continue;
      const CellType t = nl.gate(f).type;
      if (t == CellType::kConst0 || t == CellType::kConst1) {
        extra_consts.insert(f);
      } else {
        boundary.insert(f);
      }
    }
  }
  logic.insert(extra_consts.begin(), extra_consts.end());

  // Rebuild as a standalone netlist, respecting parent's topological order.
  RegisterCone rc;
  rc.register_id = register_id;
  rc.cone.set_name(nl.name() + "." + reg.name);
  rc.cone.set_source(nl.source());

  std::unordered_map<GateId, GateId> to_cone;
  // Boundaries become PORT nodes (even if they were registers in the
  // parent): from the cone's point of view they are free inputs. The cone's
  // own register, when reached through feedback, becomes a "__q" port so its
  // name does not collide with the cone's DFF node.
  for (GateId b : boundary) {
    const Gate& g = nl.gate(b);
    const std::string port_name =
        b == register_id ? g.name + "__q" : g.name;
    const GateId cid = rc.cone.add_port(port_name);
    rc.cone.gate(cid).rtl_block = g.rtl_block;
    to_cone[b] = cid;
    rc.to_parent[cid] = b;
  }
  std::vector<GateId> ordered(logic.begin(), logic.end());
  std::sort(ordered.begin(), ordered.end(), [&topo_position](GateId a, GateId b) {
    return topo_position[static_cast<std::size_t>(a)] <
           topo_position[static_cast<std::size_t>(b)];
  });
  for (GateId id : ordered) {
    const Gate& g = nl.gate(id);
    if (g.type == CellType::kConst0 || g.type == CellType::kConst1) {
      const GateId cid = rc.cone.add_gate(g.type, g.name, {});
      to_cone[id] = cid;
      rc.to_parent[cid] = id;
      continue;
    }
    std::vector<GateId> fanins;
    fanins.reserve(g.fanins.size());
    for (GateId f : g.fanins) fanins.push_back(to_cone.at(f));
    const GateId cid = rc.cone.add_gate(g.type, g.name, fanins);
    rc.cone.gate(cid).rtl_block = g.rtl_block;
    to_cone[id] = cid;
    rc.to_parent[cid] = id;
  }
  // Finally the register itself.
  const GateId d = to_cone.at(reg.fanins[0]);
  rc.cone_register = rc.cone.add_gate(CellType::kDff, reg.name, {d});
  Gate& cg = rc.cone.gate(rc.cone_register);
  cg.rtl_block = reg.rtl_block;
  cg.is_state_reg = reg.is_state_reg;
  cg.is_primary_output = true;
  rc.to_parent[rc.cone_register] = register_id;
  return rc;
}

std::vector<RegisterCone> extract_register_cones(const Netlist& nl,
                                                 std::size_t max_gates) {
  std::vector<RegisterCone> cones;
  const std::vector<std::size_t> position = topo_positions(nl);
  for (GateId r : nl.registers()) {
    cones.push_back(extract_cone(nl, r, max_gates, position));
  }
  return cones;
}

}  // namespace nettag
