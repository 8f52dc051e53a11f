// Bus-level synthesizer: the Design-Compiler substitute.
//
// The generator (generator.hpp) describes designs as sequences of RTL-level
// operations on buses; the Synthesizer lowers each operation to library
// gates, labels every gate with the RTL block it came from (ground truth for
// Task 1), emits a pseudo-Verilog RTL statement (input to the RTL encoder for
// cross-stage alignment), and tracks per-bus statement provenance so each
// register cone can be paired with exactly the RTL text that drives it.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace nettag {

/// A bundle of single-bit nets (bit 0 = LSB) plus RTL provenance.
struct Bus {
  std::vector<GateId> bits;
  std::string name;          ///< RTL-level signal name ("t7")
  std::vector<int> stmts;    ///< sorted ids of RTL statements feeding this bus
  int width() const { return static_cast<int>(bits.size()); }
};

/// Lowers bus-level operations to gates. One Synthesizer per design.
class Synthesizer {
 public:
  explicit Synthesizer(const std::string& design_name);

  // --- sources -----------------------------------------------------------
  Bus input(const std::string& name, int width);
  Bus constant(std::uint64_t value, int width);

  // --- registers ---------------------------------------------------------
  /// Registers `d`; label is the RTL block ("datapath", "fsm", "counter"...).
  Bus reg_bank(const Bus& d, const std::string& label, bool state_reg);

  /// Creates a register bank whose D input is connected later (feedback
  /// loops: FSM / counter / LFSR). Must be completed with connect_reg.
  Bus reg_feedback(int width, const std::string& label, bool state_reg);
  void connect_reg(const Bus& q, const Bus& d);

  // --- combinational operators (each emits one RTL statement) -------------
  Bus bit_and(const Bus& a, const Bus& b);
  Bus bit_or(const Bus& a, const Bus& b);
  Bus bit_xor(const Bus& a, const Bus& b);
  Bus add(const Bus& a, const Bus& b);        ///< ripple-carry, same width out
  Bus sub(const Bus& a, const Bus& b);        ///< two's-complement a-b
  Bus mul(const Bus& a, const Bus& b);        ///< array multiplier, width(a) out
  Bus cmp_eq(const Bus& a, const Bus& b);     ///< width-1 result
  Bus cmp_lt(const Bus& a, const Bus& b);     ///< unsigned a<b, width-1 result
  Bus mux(const Bus& a, const Bus& b, const Bus& sel);  ///< sel?b:a
  Bus shift_left(const Bus& a, int k);        ///< constant shift (wiring only)
  Bus rotate_left(const Bus& a, int k);
  Bus parity(const Bus& a);                   ///< XOR-reduce, width-1
  Bus reduce_and(const Bus& a);
  Bus reduce_or(const Bus& a);
  Bus decode(const Bus& a);                   ///< one-hot decoder, 2^w outputs
  Bus priority_encode(const Bus& a);          ///< index of highest set bit
  Bus lfsr_next(const Bus& state);            ///< Fibonacci LFSR next-state
  Bus crc_step(const Bus& state, const Bus& data);  ///< CRC shift-xor network

  /// Marks every bit of the bus as a primary output.
  void mark_outputs(const Bus& b);

  // --- low-level access for composite blocks (FSM, ALU) --------------------
  /// Forces the given RTL-block label onto all gates created until
  /// pop_label(), overriding the per-operator defaults. Nesting unsupported.
  void push_label(const std::string& label);
  void pop_label();

  /// Raw single gate with the current label (for hand-built control logic).
  GateId cell(CellType type, const std::vector<GateId>& fanins);

  /// Wraps raw bits into a Bus with an RTL statement (provenance from deps).
  Bus wrap(std::vector<GateId> bits, const std::vector<const Bus*>& deps,
           const std::string& op_text);

  // --- results -----------------------------------------------------------
  /// Finishes the design: runs a final wiring check and returns the netlist.
  Netlist take_netlist();

  /// Full-design RTL text (all statements).
  std::string rtl_text() const;

  /// RTL text of the statements driving each register (register gate name ->
  /// cone RTL). Filled as registers are created/connected.
  const std::unordered_map<std::string, std::string>& reg_rtl() const {
    return reg_rtl_;
  }

  const Netlist& netlist() const { return nl_; }

 private:
  GateId g(CellType type, const std::vector<GateId>& fanins);
  GateId zero();
  GateId one();
  /// Full-adder bit: returns {sum, carry} built from XOR2 + MAJ3.
  std::pair<GateId, GateId> full_adder(GateId a, GateId b, GateId cin);
  Bus fresh_bus(std::vector<GateId> bits, const std::vector<const Bus*>& deps,
                const std::string& op_text);
  int new_stmt(const std::string& text);
  std::string cone_text(const std::vector<int>& stmts) const;

  Netlist nl_;
  std::string label_ = "datapath";
  std::string label_override_;
  int gate_counter_ = 0;
  int bus_counter_ = 0;
  GateId const0_ = kNoGate;
  GateId const1_ = kNoGate;
  GateId feedback_placeholder_ = kNoGate;
  std::vector<std::string> statements_;
  std::unordered_map<std::string, std::string> reg_rtl_;
  /// Feedback register banks waiting for connect_reg (q bit -> bank index).
  struct PendingBank {
    std::vector<GateId> qs;
    std::string stmt_name;
  };
  std::vector<PendingBank> pending_;
  std::unordered_map<std::string, std::size_t> pending_by_name_;
};

}  // namespace nettag
