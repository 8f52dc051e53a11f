#include "rtlgen/synthesizer.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/check.hpp"

namespace nettag {

namespace {

/// Sorted union of statement-id lists.
std::vector<int> merge_stmts(const std::vector<const Bus*>& deps, int extra) {
  std::set<int> all;
  for (const Bus* b : deps) all.insert(b->stmts.begin(), b->stmts.end());
  if (extra >= 0) all.insert(extra);
  return {all.begin(), all.end()};
}

}  // namespace

Synthesizer::Synthesizer(const std::string& design_name) : nl_(design_name) {}

GateId Synthesizer::g(CellType type, const std::vector<GateId>& fanins) {
  const GateId id = nl_.add_gate(type, "g" + std::to_string(gate_counter_++), fanins);
  nl_.gate(id).rtl_block = label_override_.empty() ? label_ : label_override_;
  return id;
}

void Synthesizer::push_label(const std::string& label) { label_override_ = label; }
void Synthesizer::pop_label() { label_override_.clear(); }

GateId Synthesizer::cell(CellType type, const std::vector<GateId>& fanins) {
  return g(type, fanins);
}

Bus Synthesizer::wrap(std::vector<GateId> bits,
                      const std::vector<const Bus*>& deps,
                      const std::string& op_text) {
  return fresh_bus(std::move(bits), deps, op_text);
}

GateId Synthesizer::zero() {
  if (const0_ == kNoGate) {
    const0_ = nl_.add_gate(CellType::kConst0, "__const0", {});
  }
  return const0_;
}

GateId Synthesizer::one() {
  if (const1_ == kNoGate) {
    const1_ = nl_.add_gate(CellType::kConst1, "__const1", {});
  }
  return const1_;
}

int Synthesizer::new_stmt(const std::string& text) {
  statements_.push_back(text);
  return static_cast<int>(statements_.size()) - 1;
}

Bus Synthesizer::fresh_bus(std::vector<GateId> bits,
                           const std::vector<const Bus*>& deps,
                           const std::string& op_text) {
  Bus out;
  out.name = "t" + std::to_string(bus_counter_++);
  out.bits = std::move(bits);
  std::ostringstream text;
  text << "assign " << out.name << " = " << op_text << " ;";
  const int stmt = new_stmt(text.str());
  out.stmts = merge_stmts(deps, stmt);
  return out;
}

std::string Synthesizer::cone_text(const std::vector<int>& stmts) const {
  std::ostringstream out;
  for (int s : stmts) out << statements_[static_cast<std::size_t>(s)] << "\n";
  return out.str();
}

Bus Synthesizer::input(const std::string& name, int width) {
  Bus b;
  b.name = name;
  for (int i = 0; i < width; ++i) {
    b.bits.push_back(nl_.add_port(name + "[" + std::to_string(i) + "]"));
  }
  const int stmt = new_stmt("input " + name + " ;");
  b.stmts = {stmt};
  return b;
}

Bus Synthesizer::constant(std::uint64_t value, int width) {
  Bus b;
  b.name = "c" + std::to_string(bus_counter_++);
  for (int i = 0; i < width; ++i) {
    b.bits.push_back((value >> i) & 1 ? one() : zero());
  }
  b.stmts = {};
  return b;
}

Bus Synthesizer::reg_bank(const Bus& d, const std::string& label, bool state_reg) {
  label_ = label;
  Bus q;
  q.name = "t" + std::to_string(bus_counter_++);
  const int stmt = new_stmt("reg " + q.name + " ; always @ ( posedge clk ) " +
                            q.name + " = " + d.name + " ;");
  q.stmts = merge_stmts({&d}, stmt);
  const std::string cone = cone_text(q.stmts);
  for (int i = 0; i < d.width(); ++i) {
    const GateId r = nl_.add_gate(
        CellType::kDff, "r" + std::to_string(gate_counter_++), {d.bits[static_cast<std::size_t>(i)]});
    Gate& gate = nl_.gate(r);
    gate.rtl_block = label;
    gate.is_state_reg = state_reg;
    q.bits.push_back(r);
    reg_rtl_[gate.name] = cone;
  }
  return q;
}

Bus Synthesizer::reg_feedback(int width, const std::string& label, bool state_reg) {
  if (feedback_placeholder_ == kNoGate) {
    feedback_placeholder_ = nl_.add_gate(CellType::kConst0, "__fb", {});
  }
  Bus q;
  q.name = "t" + std::to_string(bus_counter_++);
  const int stmt = new_stmt("reg " + q.name + " ;");
  q.stmts = {stmt};
  PendingBank bank;
  bank.stmt_name = q.name;
  for (int i = 0; i < width; ++i) {
    const GateId r = nl_.add_gate(CellType::kDff, "r" + std::to_string(gate_counter_++),
                                  {feedback_placeholder_});
    Gate& gate = nl_.gate(r);
    gate.rtl_block = label;
    gate.is_state_reg = state_reg;
    q.bits.push_back(r);
    bank.qs.push_back(r);
  }
  pending_by_name_[q.name] = pending_.size();
  pending_.push_back(std::move(bank));
  return q;
}

void Synthesizer::connect_reg(const Bus& q, const Bus& d) {
  auto it = pending_by_name_.find(q.name);
  if (it == pending_by_name_.end()) {
    throw std::invalid_argument("connect_reg: not a feedback bank: " + q.name);
  }
  const PendingBank& bank = pending_[it->second];
  if (static_cast<int>(bank.qs.size()) != d.width()) {
    throw std::invalid_argument("connect_reg: width mismatch on " + q.name);
  }
  const int stmt = new_stmt("always @ ( posedge clk ) " + q.name + " = " +
                            d.name + " ;");
  const std::string cone = cone_text(merge_stmts({&d, &q}, stmt));
  for (std::size_t i = 0; i < bank.qs.size(); ++i) {
    nl_.replace_fanin(bank.qs[i], feedback_placeholder_, d.bits[i]);
    reg_rtl_[nl_.gate(bank.qs[i]).name] = cone;
  }
  pending_by_name_.erase(it);
}

// --- combinational operators -----------------------------------------------

namespace {

/// Bitwise operands must match bit for bit.
void check_same_width(const Bus& a, const Bus& b, const char* op) {
  NETTAG_CHECK(a.width() == b.width(),
               std::string("Synthesizer::") + op + ": operand widths differ: " +
                   a.name + " is " + std::to_string(a.width()) + " bits, " +
                   b.name + " is " + std::to_string(b.width()));
}

}  // namespace

Bus Synthesizer::bit_and(const Bus& a, const Bus& b) {
  check_same_width(a, b, "bit_and");
  label_ = "bitwise";
  std::vector<GateId> bits;
  for (int i = 0; i < a.width(); ++i) {
    bits.push_back(g(CellType::kAnd2,
                     {a.bits[static_cast<std::size_t>(i)], b.bits[static_cast<std::size_t>(i)]}));
  }
  return fresh_bus(std::move(bits), {&a, &b}, "and ( " + a.name + " , " + b.name + " )");
}

Bus Synthesizer::bit_or(const Bus& a, const Bus& b) {
  check_same_width(a, b, "bit_or");
  label_ = "bitwise";
  std::vector<GateId> bits;
  for (int i = 0; i < a.width(); ++i) {
    bits.push_back(g(CellType::kOr2,
                     {a.bits[static_cast<std::size_t>(i)], b.bits[static_cast<std::size_t>(i)]}));
  }
  return fresh_bus(std::move(bits), {&a, &b}, "or ( " + a.name + " , " + b.name + " )");
}

Bus Synthesizer::bit_xor(const Bus& a, const Bus& b) {
  check_same_width(a, b, "bit_xor");
  label_ = "bitwise";
  std::vector<GateId> bits;
  for (int i = 0; i < a.width(); ++i) {
    bits.push_back(g(CellType::kXor2,
                     {a.bits[static_cast<std::size_t>(i)], b.bits[static_cast<std::size_t>(i)]}));
  }
  return fresh_bus(std::move(bits), {&a, &b}, "xor ( " + a.name + " , " + b.name + " )");
}

std::pair<GateId, GateId> Synthesizer::full_adder(GateId a, GateId b, GateId cin) {
  const GateId axb = g(CellType::kXor2, {a, b});
  const GateId sum = g(CellType::kXor2, {axb, cin});
  const GateId carry = g(CellType::kMaj3, {a, b, cin});
  return {sum, carry};
}

namespace {
// Shared ripple-carry core used by add/sub/mul (label set by caller).
}  // namespace

Bus Synthesizer::add(const Bus& a, const Bus& b) {
  check_same_width(a, b, "add");
  label_ = "add";
  std::vector<GateId> bits;
  // Half adder for bit 0, full adders above.
  GateId carry = kNoGate;
  for (int i = 0; i < a.width(); ++i) {
    const GateId ai = a.bits[static_cast<std::size_t>(i)];
    const GateId bi = b.bits[static_cast<std::size_t>(i)];
    if (i == 0) {
      bits.push_back(g(CellType::kXor2, {ai, bi}));
      carry = g(CellType::kAnd2, {ai, bi});
    } else {
      auto [s, c] = full_adder(ai, bi, carry);
      bits.push_back(s);
      carry = c;
    }
  }
  return fresh_bus(std::move(bits), {&a, &b}, "add ( " + a.name + " , " + b.name + " )");
}

Bus Synthesizer::sub(const Bus& a, const Bus& b) {
  check_same_width(a, b, "sub");
  label_ = "sub";
  // a - b = a + ~b + 1.
  std::vector<GateId> bits;
  GateId carry = one();
  for (int i = 0; i < a.width(); ++i) {
    const GateId ai = a.bits[static_cast<std::size_t>(i)];
    const GateId nbi = g(CellType::kInv, {b.bits[static_cast<std::size_t>(i)]});
    auto [s, c] = full_adder(ai, nbi, carry);
    bits.push_back(s);
    carry = c;
  }
  return fresh_bus(std::move(bits), {&a, &b}, "sub ( " + a.name + " , " + b.name + " )");
}

Bus Synthesizer::mul(const Bus& a, const Bus& b) {
  label_ = "mul";
  const int w = a.width();
  // Array multiplier truncated to w bits: accumulate shifted partial products.
  std::vector<GateId> acc(static_cast<std::size_t>(w), zero());
  for (int i = 0; i < b.width() && i < w; ++i) {
    // Partial product row i: (a & b_i) << i, truncated to width w.
    std::vector<GateId> row(static_cast<std::size_t>(w), zero());
    for (int j = 0; j + i < w; ++j) {
      row[static_cast<std::size_t>(j + i)] =
          g(CellType::kAnd2, {a.bits[static_cast<std::size_t>(j)],
                              b.bits[static_cast<std::size_t>(i)]});
    }
    if (i == 0) {
      acc = row;
      continue;
    }
    // acc += row (ripple carry; bits below i are unchanged).
    GateId carry = kNoGate;
    for (int j = i; j < w; ++j) {
      if (j == i) {
        const GateId s = g(CellType::kXor2, {acc[static_cast<std::size_t>(j)],
                                             row[static_cast<std::size_t>(j)]});
        carry = g(CellType::kAnd2, {acc[static_cast<std::size_t>(j)],
                                    row[static_cast<std::size_t>(j)]});
        acc[static_cast<std::size_t>(j)] = s;
      } else {
        auto [s, c] = full_adder(acc[static_cast<std::size_t>(j)],
                                 row[static_cast<std::size_t>(j)], carry);
        acc[static_cast<std::size_t>(j)] = s;
        carry = c;
      }
    }
  }
  return fresh_bus(std::move(acc), {&a, &b}, "mul ( " + a.name + " , " + b.name + " )");
}

Bus Synthesizer::cmp_eq(const Bus& a, const Bus& b) {
  check_same_width(a, b, "cmp_eq");
  label_ = "cmp";
  std::vector<GateId> eq_bits;
  for (int i = 0; i < a.width(); ++i) {
    eq_bits.push_back(g(CellType::kXnor2,
                        {a.bits[static_cast<std::size_t>(i)],
                         b.bits[static_cast<std::size_t>(i)]}));
  }
  // AND-reduce with AND2/AND3/AND4 tree.
  while (eq_bits.size() > 1) {
    std::vector<GateId> next;
    std::size_t i = 0;
    while (i < eq_bits.size()) {
      const std::size_t rem = eq_bits.size() - i;
      if (rem >= 4) {
        next.push_back(g(CellType::kAnd4, {eq_bits[i], eq_bits[i + 1],
                                           eq_bits[i + 2], eq_bits[i + 3]}));
        i += 4;
      } else if (rem == 3) {
        next.push_back(g(CellType::kAnd3, {eq_bits[i], eq_bits[i + 1], eq_bits[i + 2]}));
        i += 3;
      } else if (rem == 2) {
        next.push_back(g(CellType::kAnd2, {eq_bits[i], eq_bits[i + 1]}));
        i += 2;
      } else {
        next.push_back(eq_bits[i]);
        i += 1;
      }
    }
    eq_bits = std::move(next);
  }
  return fresh_bus({eq_bits[0]}, {&a, &b}, "eq ( " + a.name + " , " + b.name + " )");
}

Bus Synthesizer::cmp_lt(const Bus& a, const Bus& b) {
  check_same_width(a, b, "cmp_lt");
  label_ = "cmp";
  // LSB-to-MSB borrow recurrence: lt = (!a&b) | ((a xnor b) & lt_prev).
  GateId lt = kNoGate;
  for (int i = 0; i < a.width(); ++i) {
    const GateId ai = a.bits[static_cast<std::size_t>(i)];
    const GateId bi = b.bits[static_cast<std::size_t>(i)];
    const GateId na = g(CellType::kInv, {ai});
    const GateId t = g(CellType::kAnd2, {na, bi});
    if (i == 0) {
      lt = t;
    } else {
      const GateId e = g(CellType::kXnor2, {ai, bi});
      const GateId c = g(CellType::kAnd2, {e, lt});
      lt = g(CellType::kOr2, {t, c});
    }
  }
  return fresh_bus({lt}, {&a, &b}, "lt ( " + a.name + " , " + b.name + " )");
}

Bus Synthesizer::mux(const Bus& a, const Bus& b, const Bus& sel) {
  check_same_width(a, b, "mux");
  NETTAG_CHECK(sel.width() == 1, "Synthesizer::mux: select " + sel.name +
                                     " is " + std::to_string(sel.width()) +
                                     " bits, want 1");
  label_ = "mux";
  std::vector<GateId> bits;
  for (int i = 0; i < a.width(); ++i) {
    bits.push_back(g(CellType::kMux2,
                     {a.bits[static_cast<std::size_t>(i)],
                      b.bits[static_cast<std::size_t>(i)], sel.bits[0]}));
  }
  return fresh_bus(std::move(bits), {&a, &b, &sel},
                   "mux ( " + sel.name + " , " + a.name + " , " + b.name + " )");
}

Bus Synthesizer::shift_left(const Bus& a, int k) {
  label_ = "shift";
  std::vector<GateId> bits(static_cast<std::size_t>(a.width()));
  for (int i = 0; i < a.width(); ++i) {
    bits[static_cast<std::size_t>(i)] =
        i >= k ? a.bits[static_cast<std::size_t>(i - k)] : zero();
  }
  return fresh_bus(std::move(bits), {&a},
                   "shift ( " + a.name + " , " + std::to_string(k) + " )");
}

Bus Synthesizer::rotate_left(const Bus& a, int k) {
  label_ = "shift";
  const int w = a.width();
  std::vector<GateId> bits(static_cast<std::size_t>(w));
  for (int i = 0; i < w; ++i) {
    bits[static_cast<std::size_t>(i)] =
        a.bits[static_cast<std::size_t>(((i - k) % w + w) % w)];
  }
  return fresh_bus(std::move(bits), {&a},
                   "rotate ( " + a.name + " , " + std::to_string(k) + " )");
}

Bus Synthesizer::parity(const Bus& a) {
  label_ = "parity";
  std::vector<GateId> acc = a.bits;
  while (acc.size() > 1) {
    std::vector<GateId> next;
    for (std::size_t i = 0; i + 1 < acc.size(); i += 2) {
      next.push_back(g(CellType::kXor2, {acc[i], acc[i + 1]}));
    }
    if (acc.size() % 2) next.push_back(acc.back());
    acc = std::move(next);
  }
  return fresh_bus({acc[0]}, {&a}, "parity ( " + a.name + " )");
}

Bus Synthesizer::reduce_and(const Bus& a) {
  label_ = "reduce";
  std::vector<GateId> acc = a.bits;
  while (acc.size() > 1) {
    std::vector<GateId> next;
    for (std::size_t i = 0; i + 1 < acc.size(); i += 2) {
      next.push_back(g(CellType::kAnd2, {acc[i], acc[i + 1]}));
    }
    if (acc.size() % 2) next.push_back(acc.back());
    acc = std::move(next);
  }
  return fresh_bus({acc[0]}, {&a}, "reduce ( and , " + a.name + " )");
}

Bus Synthesizer::reduce_or(const Bus& a) {
  label_ = "reduce";
  std::vector<GateId> acc = a.bits;
  while (acc.size() > 1) {
    std::vector<GateId> next;
    for (std::size_t i = 0; i + 1 < acc.size(); i += 2) {
      next.push_back(g(CellType::kOr2, {acc[i], acc[i + 1]}));
    }
    if (acc.size() % 2) next.push_back(acc.back());
    acc = std::move(next);
  }
  return fresh_bus({acc[0]}, {&a}, "reduce ( or , " + a.name + " )");
}

Bus Synthesizer::decode(const Bus& a) {
  label_ = "decode";
  const int w = std::min(a.width(), 3);
  std::vector<GateId> inv;
  for (int i = 0; i < w; ++i) {
    inv.push_back(g(CellType::kInv, {a.bits[static_cast<std::size_t>(i)]}));
  }
  std::vector<GateId> outs;
  for (int code = 0; code < (1 << w); ++code) {
    std::vector<GateId> lits;
    for (int i = 0; i < w; ++i) {
      lits.push_back((code >> i) & 1 ? a.bits[static_cast<std::size_t>(i)]
                                     : inv[static_cast<std::size_t>(i)]);
    }
    if (w == 1) {
      outs.push_back(lits[0]);
    } else if (w == 2) {
      outs.push_back(g(CellType::kAnd2, lits));
    } else {
      outs.push_back(g(CellType::kAnd3, lits));
    }
  }
  return fresh_bus(std::move(outs), {&a}, "decode ( " + a.name + " )");
}

Bus Synthesizer::priority_encode(const Bus& a) {
  label_ = "encode";
  const int w = a.width();
  // hi_i = a_i & !a_{i+1} & ... & !a_{w-1}
  std::vector<GateId> hi(static_cast<std::size_t>(w));
  GateId none_above = kNoGate;  // !a_{i+1..w-1}
  for (int i = w - 1; i >= 0; --i) {
    const GateId ai = a.bits[static_cast<std::size_t>(i)];
    if (i == w - 1) {
      hi[static_cast<std::size_t>(i)] = ai;
      none_above = g(CellType::kInv, {ai});
    } else {
      hi[static_cast<std::size_t>(i)] = g(CellType::kAnd2, {ai, none_above});
      if (i > 0) {
        const GateId nai = g(CellType::kInv, {ai});
        none_above = g(CellType::kAnd2, {nai, none_above});
      }
    }
  }
  // Output bit k = OR of hi_i for those i with bit k set.
  int out_w = 1;
  while ((1 << out_w) < w) ++out_w;
  std::vector<GateId> outs;
  for (int k = 0; k < out_w; ++k) {
    std::vector<GateId> terms;
    for (int i = 0; i < w; ++i) {
      if ((i >> k) & 1) terms.push_back(hi[static_cast<std::size_t>(i)]);
    }
    if (terms.empty()) {
      outs.push_back(zero());
    } else {
      GateId acc = terms[0];
      for (std::size_t t = 1; t < terms.size(); ++t) {
        acc = g(CellType::kOr2, {acc, terms[t]});
      }
      outs.push_back(acc);
    }
  }
  return fresh_bus(std::move(outs), {&a}, "encode ( " + a.name + " )");
}

Bus Synthesizer::lfsr_next(const Bus& state) {
  label_ = "lfsr";
  const int w = state.width();
  // Fibonacci LFSR: feedback = msb ^ state[tap]; next = shift-left | feedback.
  const int tap = w > 2 ? w / 2 : 0;
  const GateId fb = g(CellType::kXor2, {state.bits[static_cast<std::size_t>(w - 1)],
                                        state.bits[static_cast<std::size_t>(tap)]});
  std::vector<GateId> bits(static_cast<std::size_t>(w));
  bits[0] = fb;
  for (int i = 1; i < w; ++i) {
    bits[static_cast<std::size_t>(i)] = state.bits[static_cast<std::size_t>(i - 1)];
  }
  return fresh_bus(std::move(bits), {&state}, "lfsr ( " + state.name + " )");
}

Bus Synthesizer::crc_step(const Bus& state, const Bus& data) {
  label_ = "crc";
  const int w = state.width();
  const GateId fb = g(CellType::kXor2,
                      {state.bits[static_cast<std::size_t>(w - 1)], data.bits[0]});
  std::vector<GateId> bits(static_cast<std::size_t>(w));
  bits[0] = fb;
  for (int i = 1; i < w; ++i) {
    const GateId prev = state.bits[static_cast<std::size_t>(i - 1)];
    // Taps at odd positions xor in the feedback (CRC polynomial flavour).
    bits[static_cast<std::size_t>(i)] =
        (i % 2) ? g(CellType::kXor2, {prev, fb}) : prev;
  }
  return fresh_bus(std::move(bits), {&state, &data},
                   "crc ( " + state.name + " , " + data.name + " )");
}

void Synthesizer::mark_outputs(const Bus& b) {
  for (GateId bit : b.bits) nl_.mark_output(bit);
  new_stmt("output " + b.name + " ;");
}

Netlist Synthesizer::take_netlist() {
  if (!pending_by_name_.empty()) {
    throw std::runtime_error("take_netlist: unconnected feedback register bank");
  }
  nl_.validate();
  return std::move(nl_);
}

std::string Synthesizer::rtl_text() const {
  std::ostringstream out;
  out << "module " << nl_.name() << " ;\n";
  for (const auto& s : statements_) out << s << "\n";
  out << "endmodule\n";
  return out.str();
}

}  // namespace nettag
