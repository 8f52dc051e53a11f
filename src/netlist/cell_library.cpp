#include "netlist/cell_library.hpp"

#include <array>
#include <cctype>
#include <stdexcept>
#include <unordered_map>

#include "analysis/check.hpp"

namespace nettag {

namespace {

// Physical numbers are NanGate45-flavoured approximations: relative ordering
// and magnitudes matter (INV small/fast, AOI22 big/slow, DFF biggest), not
// the precise values.
const std::array<CellInfo, kNumCellTypes> kCells = {{
    {CellType::kPort, "PORT", 0, false, 0.0, 0.0, 0.0, 0.05, 0.0},
    {CellType::kConst0, "CONST0", 0, false, 0.0, 0.0, 0.0, 0.05, 0.0},
    {CellType::kConst1, "CONST1", 0, false, 0.0, 0.0, 0.0, 0.05, 0.0},
    {CellType::kInv, "INV", 1, false, 0.53, 1.2, 1.6, 0.12, 0.010},
    {CellType::kBuf, "BUF", 1, false, 0.80, 1.5, 1.5, 0.08, 0.018},
    {CellType::kAnd2, "AND2", 2, false, 1.06, 2.0, 1.8, 0.14, 0.028},
    {CellType::kAnd3, "AND3", 3, false, 1.33, 2.6, 1.9, 0.15, 0.034},
    {CellType::kAnd4, "AND4", 4, false, 1.60, 3.1, 2.0, 0.16, 0.040},
    {CellType::kNand2, "NAND2", 2, false, 0.80, 1.6, 1.7, 0.13, 0.016},
    {CellType::kNand3, "NAND3", 3, false, 1.06, 2.2, 1.8, 0.14, 0.022},
    {CellType::kNand4, "NAND4", 4, false, 1.33, 2.8, 1.9, 0.15, 0.028},
    {CellType::kOr2, "OR2", 2, false, 1.06, 2.1, 1.8, 0.14, 0.030},
    {CellType::kOr3, "OR3", 3, false, 1.33, 2.7, 1.9, 0.15, 0.036},
    {CellType::kOr4, "OR4", 4, false, 1.60, 3.2, 2.0, 0.16, 0.042},
    {CellType::kNor2, "NOR2", 2, false, 0.80, 1.7, 1.7, 0.14, 0.018},
    {CellType::kNor3, "NOR3", 3, false, 1.06, 2.3, 1.8, 0.15, 0.024},
    {CellType::kNor4, "NOR4", 4, false, 1.33, 2.9, 1.9, 0.16, 0.030},
    {CellType::kXor2, "XOR2", 2, false, 1.60, 3.4, 2.2, 0.17, 0.042},
    {CellType::kXnor2, "XNOR2", 2, false, 1.60, 3.4, 2.2, 0.17, 0.042},
    {CellType::kMux2, "MUX2", 3, false, 1.86, 3.6, 2.1, 0.16, 0.046},
    {CellType::kAoi21, "AOI21", 3, false, 1.06, 2.4, 1.9, 0.15, 0.024},
    {CellType::kAoi22, "AOI22", 4, false, 1.33, 3.0, 2.0, 0.16, 0.030},
    {CellType::kOai21, "OAI21", 3, false, 1.06, 2.4, 1.9, 0.15, 0.024},
    {CellType::kOai22, "OAI22", 4, false, 1.33, 3.0, 2.0, 0.16, 0.030},
    {CellType::kMaj3, "MAJ3", 3, false, 1.86, 3.8, 2.2, 0.17, 0.048},
    {CellType::kDff, "DFF", 1, true, 4.52, 8.5, 1.8, 0.14, 0.090},
}};

}  // namespace

const CellInfo& cell_info(CellType type) {
  return kCells[static_cast<std::size_t>(type)];
}

CellType cell_type_from_name(const std::string& name) {
  static const std::unordered_map<std::string, CellType> index = [] {
    std::unordered_map<std::string, CellType> m;
    for (const auto& c : kCells) m[c.name] = c.type;
    return m;
  }();
  std::string upper;
  upper.reserve(name.size());
  for (char c : name) upper.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  auto it = index.find(upper);
  if (it == index.end()) {
    throw std::invalid_argument("unknown cell name: " + name);
  }
  return it->second;
}

ExprPtr cell_function(CellType type, const std::vector<ExprPtr>& in) {
  const CellInfo& info = cell_info(type);
  NETTAG_CHECK(static_cast<int>(in.size()) == info.num_inputs,
               std::string("cell_function: ") + info.name + " takes " +
                   std::to_string(info.num_inputs) + " inputs, got " +
                   std::to_string(in.size()));
  switch (type) {
    case CellType::kPort:
      throw std::invalid_argument("PORT has no local function");
    case CellType::kConst0:
      return Expr::constant(false);
    case CellType::kConst1:
      return Expr::constant(true);
    case CellType::kInv:
      return Expr::lnot(in[0]);
    case CellType::kBuf:
    case CellType::kDff:
      return in[0];
    case CellType::kAnd2:
    case CellType::kAnd3:
    case CellType::kAnd4:
      return Expr::land(in);
    case CellType::kNand2:
    case CellType::kNand3:
    case CellType::kNand4:
      return Expr::lnot(Expr::land(in));
    case CellType::kOr2:
    case CellType::kOr3:
    case CellType::kOr4:
      return Expr::lor(in);
    case CellType::kNor2:
    case CellType::kNor3:
    case CellType::kNor4:
      return Expr::lnot(Expr::lor(in));
    case CellType::kXor2:
      return Expr::lxor(in);
    case CellType::kXnor2:
      return Expr::lnot(Expr::lxor(in));
    case CellType::kMux2:
      // (A, B, S): S ? B : A
      return Expr::lor(Expr::land(Expr::lnot(in[2]), in[0]),
                       Expr::land(in[2], in[1]));
    case CellType::kAoi21:
      return Expr::lnot(Expr::lor(Expr::land(in[0], in[1]), in[2]));
    case CellType::kAoi22:
      return Expr::lnot(
          Expr::lor(Expr::land(in[0], in[1]), Expr::land(in[2], in[3])));
    case CellType::kOai21:
      return Expr::lnot(Expr::land(Expr::lor(in[0], in[1]), in[2]));
    case CellType::kOai22:
      return Expr::lnot(
          Expr::land(Expr::lor(in[0], in[1]), Expr::lor(in[2], in[3])));
    case CellType::kMaj3:
      return Expr::lor(Expr::lor(Expr::land(in[0], in[1]), Expr::land(in[0], in[2])),
                       Expr::land(in[1], in[2]));
  }
  throw std::invalid_argument("cell_function: bad type");
}

bool cell_eval(CellType type, const std::vector<bool>& in) {
  NETTAG_CHECK(in.size() <= static_cast<std::size_t>(kMaxCellInputs),
               "cell_eval: " + std::to_string(in.size()) + " inputs for " +
                   cell_info(type).name);
  unsigned bits = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    bits |= static_cast<unsigned>(in[i]) << i;
  }
  return cell_eval_bits(type, bits);
}

bool cell_eval_bits(CellType type, unsigned bits) {
  const auto in = [bits](int i) { return ((bits >> i) & 1u) != 0; };
  switch (type) {
    case CellType::kPort:
      throw std::invalid_argument("PORT has no local function");
    case CellType::kConst0:
      return false;
    case CellType::kConst1:
      return true;
    case CellType::kInv:
      return !in(0);
    case CellType::kBuf:
    case CellType::kDff:
      return in(0);
    case CellType::kAnd2:
      return in(0) && in(1);
    case CellType::kAnd3:
      return in(0) && in(1) && in(2);
    case CellType::kAnd4:
      return in(0) && in(1) && in(2) && in(3);
    case CellType::kNand2:
      return !(in(0) && in(1));
    case CellType::kNand3:
      return !(in(0) && in(1) && in(2));
    case CellType::kNand4:
      return !(in(0) && in(1) && in(2) && in(3));
    case CellType::kOr2:
      return in(0) || in(1);
    case CellType::kOr3:
      return in(0) || in(1) || in(2);
    case CellType::kOr4:
      return in(0) || in(1) || in(2) || in(3);
    case CellType::kNor2:
      return !(in(0) || in(1));
    case CellType::kNor3:
      return !(in(0) || in(1) || in(2));
    case CellType::kNor4:
      return !(in(0) || in(1) || in(2) || in(3));
    case CellType::kXor2:
      return in(0) != in(1);
    case CellType::kXnor2:
      return in(0) == in(1);
    case CellType::kMux2:
      return in(2) ? in(1) : in(0);
    case CellType::kAoi21:
      return !((in(0) && in(1)) || in(2));
    case CellType::kAoi22:
      return !((in(0) && in(1)) || (in(2) && in(3)));
    case CellType::kOai21:
      return !((in(0) || in(1)) && in(2));
    case CellType::kOai22:
      return !((in(0) || in(1)) && (in(2) || in(3)));
    case CellType::kMaj3:
      return (in(0) && in(1)) || (in(0) && in(2)) || (in(1) && in(2));
  }
  throw std::invalid_argument("cell_eval_bits: bad type");
}

int gate_class_of(CellType type) {
  const int first = static_cast<int>(CellType::kInv);
  const int last = static_cast<int>(CellType::kMaj3);
  const int t = static_cast<int>(type);
  if (t < first || t > last) return -1;
  return t - first;
}

int num_gate_classes() {
  return static_cast<int>(CellType::kMaj3) - static_cast<int>(CellType::kInv) + 1;
}

}  // namespace nettag
