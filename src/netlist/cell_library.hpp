// Standard-cell library modeled after the NanGate 45nm open cell library the
// paper synthesizes into. Each cell carries the physical characteristics that
// become part of a gate's TAG text attribute (area, leakage, input cap, drive
// resistance, intrinsic delay) and a local Boolean function used for k-hop
// symbolic expression extraction, simulation, and AIG decomposition.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expr/expr.hpp"

namespace nettag {

enum class CellType : std::uint8_t {
  kPort,    ///< primary input (no fanin)
  kConst0,  ///< tie-low
  kConst1,  ///< tie-high
  kInv,
  kBuf,
  kAnd2,
  kAnd3,
  kAnd4,
  kNand2,
  kNand3,
  kNand4,
  kOr2,
  kOr3,
  kOr4,
  kNor2,
  kNor3,
  kNor4,
  kXor2,
  kXnor2,
  kMux2,   ///< inputs (A, B, S): S ? B : A
  kAoi21,  ///< !((A&B) | C)
  kAoi22,  ///< !((A&B) | (C&D))
  kOai21,  ///< !((A|B) & C)
  kOai22,  ///< !((A|B) & (C|D))
  kMaj3,   ///< majority(A,B,C) — carry cell
  kDff,    ///< input D; output Q (sequential)
};

/// Number of distinct cell types (array sizing).
constexpr int kNumCellTypes = static_cast<int>(CellType::kDff) + 1;

/// Largest input count of any library cell (AND4, NAND4, OR4, NOR4, AOI22,
/// OAI22); fixed-size per-gate scratch is sized by it.
constexpr int kMaxCellInputs = 4;

/// Static per-cell data.
struct CellInfo {
  CellType type;
  const char* name;      ///< library cell name, e.g. "NAND2"
  int num_inputs;        ///< required fanin count
  bool sequential;       ///< true only for DFF
  double area;           ///< um^2
  double leakage;        ///< nW
  double input_cap;      ///< fF per input pin
  double drive_res;      ///< kOhm equivalent output drive
  double intrinsic_delay;///< ns at zero load
};

/// Library lookup by type. Data is immutable and process-wide.
const CellInfo& cell_info(CellType type);

/// Parses a cell name ("NAND2", case-insensitive) back to its type.
/// Throws std::invalid_argument for unknown names.
CellType cell_type_from_name(const std::string& name);

/// The cell's Boolean function applied to symbolic input expressions.
/// `inputs` must have exactly cell_info(type).num_inputs entries. DFF returns
/// its D input (the function seen *through* a register is handled by cone
/// boundaries, not here); PORT/CONST take no inputs.
ExprPtr cell_function(CellType type, const std::vector<ExprPtr>& inputs);

/// Evaluates the cell's function on concrete input bits (fast path used by
/// the simulator; avoids building expression trees). Routes through
/// cell_eval_bits; at most kMaxCellInputs inputs.
bool cell_eval(CellType type, const std::vector<bool>& inputs);

/// The cell's truth table: its output when input i carries bit i of
/// `inputs` (bits at and above the cell's input count are ignored).
bool cell_eval_bits(CellType type, unsigned inputs);

/// Classes used for masked-gate-type prediction (Objective #2.1): all
/// combinational logic cells (PORT/CONST/DFF excluded).
int gate_class_of(CellType type);          ///< -1 if not a logic cell
int num_gate_classes();                    ///< number of logic-cell classes

}  // namespace nettag
