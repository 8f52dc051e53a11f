// Structural netlist reader/writer.
//
// A compact Verilog-inspired line format so generated designs can be dumped,
// inspected, versioned, and reloaded:
//
//   module <name> source <family>
//   port <name> [block=<label>]
//   reg <name> [block=<label>] [state] [out]
//   gate <CELL> <name> <fanin>... [block=<label>] [state] [out]
//   drive <reg> <signal>
//   endmodule
//
// Gate output nets are identified with instance names; fanins reference
// instance names and must be declared earlier. Registers are declared up
// front with `reg` (their Q pins feed combinational logic) and their D
// inputs are connected by trailing `drive` lines, so sequential feedback
// round-trips. `state` marks a state register (Task 2 ground truth), `out`
// a primary output, `block=` the RTL provenance label (Task 1 ground
// truth). `gate DFF <name> <d>` is also accepted when the driver is
// already defined.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "netlist/netlist.hpp"

namespace nettag {

/// Serializes the netlist (topological order).
void write_netlist(std::ostream& os, const Netlist& nl);
std::string netlist_to_string(const Netlist& nl);

/// Parses the format produced by write_netlist; text after `endmodule` is
/// ignored. Throws std::runtime_error naming the line on malformed input,
/// or naming a register that is never driven. An unknown cell, a duplicate
/// name or a register driven twice throws std::invalid_argument, also
/// naming the line.
Netlist read_netlist(std::string_view text);
/// Reads `is` to its end, then parses it as above.
Netlist read_netlist(std::istream& is);
Netlist netlist_from_string(const std::string& text);

}  // namespace nettag
