// Register-cone chunking (paper §II-B).
//
// Large sequential circuits are chunked into one combinational cone per
// register: backtracing from the register's D pin through all driving logic
// up to other registers / primary inputs yields a subcircuit capturing the
// register's complete state-transition function. Cones are the unit of
// pre-training and of Task 2/3 fine-tuning; circuit-level embeddings sum
// cone embeddings (paper §II-F).
#pragma once

#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"

namespace nettag {

/// The cone cap of corpus building, NetTag::embed_circuit and served
/// requests that name none: the paper bounds cone growth, and a corpus
/// manifest records the cap it was built with.
inline constexpr std::size_t kMaxConeGates = 120;

/// One register cone: a standalone combinational netlist whose boundary
/// nodes (other registers, primary inputs) are PORT nodes, terminating in a
/// single DFF (the cone's register, marked as primary output).
struct RegisterCone {
  GateId register_id = kNoGate;   ///< DFF id in the *parent* netlist
  Netlist cone;                   ///< standalone cone netlist
  GateId cone_register = kNoGate; ///< DFF id in `cone`
  /// cone gate id -> parent gate id
  std::unordered_map<GateId, GateId> to_parent;
};

/// Extracts a cone for every DFF in `nl`. Gate names, RTL-block labels and
/// state-register flags are preserved, so cone-level tasks keep their
/// ground truth. `max_gates` caps cone size (0 = unbounded): the backward
/// BFS stops expanding once the cap is reached and the remaining frontier
/// becomes PORT boundaries, mirroring how the paper bounds cone growth.
std::vector<RegisterCone> extract_register_cones(const Netlist& nl,
                                                 std::size_t max_gates = 0);

/// Extracts the cone for a single register.
RegisterCone extract_cone(const Netlist& nl, GateId register_id,
                          std::size_t max_gates = 0);

/// Position of every gate of `nl` in nl.topo_order(), indexed by gate id.
/// Cones extracted from one netlist share it, so the parent is sorted once
/// per netlist rather than once per register.
std::vector<std::size_t> topo_positions(const Netlist& nl);

/// As above, with the parent's topo_positions(nl) computed by the caller.
RegisterCone extract_cone(const Netlist& nl, GateId register_id,
                          std::size_t max_gates,
                          const std::vector<std::size_t>& topo_position);

}  // namespace nettag
