// Text-attributed graph (TAG) formulation of netlists — the paper's central
// preprocessing idea (§II-B).
//
// Every gate is annotated with a text attribute combining:
//  * functional: the k-hop symbolic logic expression of its fan-in cone
//    (k = 2 by default, the paper's choice balancing expressiveness and
//    expansion), rendered in the "!((R1^R2)|!R2)" style; and
//  * physical: standard-cell characteristics (area / leakage / caps / drive /
//    delay) discretized into log-scale bucket tokens, plus fanout.
//
// The attribute deliberately contains no RTL-provenance information: Task 1
// predicts exactly that, so leaking it would be label contamination (the
// paper makes the same point for GNN-RE's dataset).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"
#include "nn/tensor.hpp"

namespace nettag {

/// A netlist formulated as a text-attributed graph.
struct TagGraph {
  std::vector<std::string> attrs;            ///< per-gate text attribute
  Mat phys;                                  ///< per-gate x_phys feature rows
  std::vector<std::pair<int, int>> edges;    ///< driver -> sink
  int num_nodes() const { return static_cast<int>(attrs.size()); }
};

/// Text attribute of one gate (name, cell type, k-hop expression, bucketized
/// physical characteristics including the gate's toggle rate and signal
/// probability, which build_tag takes from one activity report per netlist).
std::string gate_text_attribute(const Netlist& nl, GateId id, int k_hop,
                                double toggle, double prob);

/// Builds the full TAG for a netlist (cone or flat circuit).
TagGraph build_tag(const Netlist& nl, int k_hop = 2);

}  // namespace nettag
