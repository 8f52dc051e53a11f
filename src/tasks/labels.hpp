// Task 1 label registry: the RTL-block function classes a gate can belong to
// (the GNN-RE-style reverse-engineering classes: adder, multiplier,
// comparator, multiplexer, control/FSM, ...).
#pragma once

#include <string>
#include <vector>

namespace nettag {

/// Evaluation classes for Task 1 at GNN-RE granularity (adder, subtractor,
/// multiplier, comparator, interconnect/mux, logic, control, sequential-
/// support): the fine RTL-block labels are grouped into these.
const std::vector<std::string>& task1_classes();

/// Maps an RTL-block label to its evaluation class id; -1 if unknown.
int task1_class_id(const std::string& block_label);

}  // namespace nettag
