// And-Inverter Graph conversion.
//
// The pre-trained-encoder comparison (paper Fig. 5) evaluates on an
// AIG-format dataset, because the baseline encoders (FGNN, DeepGate) only
// handle AIGs. This pass decomposes every library cell into AND2 + INV
// nodes, preserving the per-gate RTL-block labels so Task 1 can be run on
// the converted graphs.
#pragma once

#include <unordered_map>

#include "netlist/netlist.hpp"

namespace nettag {

/// Result of AIG conversion.
struct AigResult {
  Netlist aig;
  /// original gate id -> AIG node computing the same output signal
  std::unordered_map<GateId, GateId> node_of;
};

/// Converts `nl` to an equivalent netlist using only PORT/CONST/DFF/AND2/INV
/// cells. Output markers, labels, and register flags are carried over.
AigResult to_aig(const Netlist& nl);

}  // namespace nettag
