// Cell counts of a netlist that the netlist, rewrite and optimization tests
// compare.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "netlist/netlist.hpp"

namespace nettag {

/// Instances per cell type, indexed by CellType value.
inline std::vector<std::size_t> type_counts(const Netlist& nl) {
  std::vector<std::size_t> counts(kNumCellTypes, 0);
  for (const Gate& g : nl.gates()) counts[static_cast<std::size_t>(g.type)]++;
  return counts;
}

/// Combinational logic cells: the gates with a gate class (PORT, CONST and
/// DFF have none).
inline std::size_t logic_count(const Netlist& nl) {
  return static_cast<std::size_t>(
      std::count_if(nl.gates().begin(), nl.gates().end(),
                    [](const Gate& g) { return gate_class_of(g.type) >= 0; }));
}

}  // namespace nettag
