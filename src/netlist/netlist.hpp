// Gate-level netlist graph.
//
// Every node is a gate (including primary-input PORT nodes and DFF
// registers); a gate's output net is identified with the gate itself, so an
// edge fanin->gate means "the fanin's output drives one of this gate's input
// pins". Fanin order is significant for non-symmetric cells (MUX2, AOI/OAI).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/cell_library.hpp"

namespace nettag {

using GateId = std::int32_t;
constexpr GateId kNoGate = -1;

/// One gate instance.
struct Gate {
  GateId id = kNoGate;
  CellType type = CellType::kPort;
  std::string name;              ///< unique instance name within the netlist
  std::vector<GateId> fanins;    ///< ordered input pins
  std::vector<GateId> fanouts;   ///< maintained by Netlist
  bool is_primary_output = false;
  // --- ground-truth annotations carried from generation (labels only; never
  // fed to models except where a task explicitly allows) ---
  std::string rtl_block;         ///< RTL block provenance (Task 1 label)
  bool is_state_reg = false;     ///< DFF only: state vs data register (Task 2)
};

/// Mutable netlist. Gates are created via add_* and referenced by GateId.
class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  /// Benchmark family ("itc99", "opencores", ...) — metadata for tables.
  const std::string& source() const { return source_; }
  void set_source(std::string s) { source_ = std::move(s); }

  std::size_t size() const { return gates_.size(); }
  const Gate& gate(GateId id) const { return gates_[static_cast<std::size_t>(id)]; }
  Gate& gate(GateId id) { return gates_[static_cast<std::size_t>(id)]; }
  const std::vector<Gate>& gates() const { return gates_; }

  /// Adds a primary input.
  GateId add_port(const std::string& name);

  /// Adds a gate of the given type driven by `fanins` (arity-checked).
  GateId add_gate(CellType type, const std::string& name,
                  const std::vector<GateId>& fanins);

  /// Adds a register whose D input is connected later (sequential feedback
  /// makes some forward reference unavoidable). The netlist is invalid
  /// (validate() throws) until connect_register() is called.
  GateId add_register(const std::string& name);

  /// Connects a deferred register's D input.
  void connect_register(GateId reg, GateId driver);

  /// Marks a gate's output as a primary output.
  void mark_output(GateId id) { gate(id).is_primary_output = true; }

  /// Replaces one fanin pin (old_fanin -> new_fanin) on `id`, updating
  /// fanout lists. All matching pins are redirected.
  void replace_fanin(GateId id, GateId old_fanin, GateId new_fanin);

  /// Looks up a gate id by instance name (kNoGate if absent).
  GateId find(const std::string& name) const;

  /// Gate ids in combinational topological order: PORT/CONST/DFF first (as
  /// sources), then logic gates such that every gate appears after all its
  /// combinational fanins. Throws std::runtime_error on a combinational cycle.
  std::vector<GateId> topo_order() const;

  /// All DFF gate ids.
  std::vector<GateId> registers() const;

  /// Structural sanity check: arities match, fanins in range, names unique,
  /// no combinational cycles. Throws std::runtime_error with a description
  /// on the first violation.
  void validate() const;

 private:
  std::string name_;
  std::string source_;
  std::vector<Gate> gates_;
  std::unordered_map<std::string, GateId> by_name_;
};

/// Symbolic expression of `id`'s output over its k-hop fan-in cone (paper
/// §II-B): expansion stops at PORT/DFF boundaries or at `k` levels of logic,
/// whichever comes first; frontier gates appear as variables named by their
/// instance name. k=0 returns just the variable for the gate itself.
ExprPtr khop_expression(const Netlist& nl, GateId id, int k);

/// Logic depth: 0 for registers and gates without fanins, otherwise one more
/// than the deepest fanin. Returns the deepest gate's (0 when empty);
/// `depth`, when non-null, receives every gate's, indexed by id.
int logic_depth(const Netlist& nl, std::vector<int>* depth = nullptr);

/// Bit-parallel simulation: given values for all PORT and DFF nodes
/// (indexed by gate id; other entries ignored), computes every gate's output.
std::vector<bool> simulate(const Netlist& nl, const std::vector<bool>& sources);

}  // namespace nettag
