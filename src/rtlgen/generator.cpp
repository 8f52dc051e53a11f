#include "rtlgen/generator.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/lint.hpp"
#include "rtlgen/optimize.hpp"
#include "rtlgen/synthesizer.hpp"

namespace nettag {

const std::vector<FamilyProfile>& benchmark_families() {
  static const std::vector<FamilyProfile> families = [] {
    std::vector<FamilyProfile> f(4);
    // Control-dominated, mid-size (ITC'99 are FSM-heavy controllers).
    f[0].name = "itc99";
    f[0].min_stages = 4;
    f[0].max_stages = 7;
    f[0].min_width = 3;
    f[0].max_width = 4;
    f[0].fsm_prob = 0.95;
    f[0].counter_prob = 0.6;
    f[0].lfsr_prob = 0.15;
    f[0].crc_prob = 0.15;
    f[0].mul_weight = 0.3;
    f[0].register_prob = 0.6;
    f[0].rewrite_intensity = 0.25;
    // Small IP cores.
    f[1].name = "opencores";
    f[1].min_stages = 2;
    f[1].max_stages = 5;
    f[1].min_width = 2;
    f[1].max_width = 4;
    f[1].fsm_prob = 0.45;
    f[1].counter_prob = 0.45;
    f[1].lfsr_prob = 0.3;
    f[1].crc_prob = 0.35;
    f[1].mul_weight = 0.5;
    f[1].register_prob = 0.5;
    f[1].rewrite_intensity = 0.2;
    // Large SoC generators: deep, wide, multiplier-rich.
    f[2].name = "chipyard";
    f[2].min_stages = 9;
    f[2].max_stages = 14;
    f[2].min_width = 4;
    f[2].max_width = 6;
    f[2].fsm_prob = 0.7;
    f[2].counter_prob = 0.6;
    f[2].lfsr_prob = 0.2;
    f[2].crc_prob = 0.2;
    f[2].mul_weight = 1.6;
    f[2].register_prob = 0.65;
    f[2].rewrite_intensity = 0.3;
    // RISC-V CPU: ALU/shift flavoured.
    f[3].name = "vexriscv";
    f[3].min_stages = 6;
    f[3].max_stages = 10;
    f[3].min_width = 3;
    f[3].max_width = 5;
    f[3].fsm_prob = 0.8;
    f[3].counter_prob = 0.5;
    f[3].lfsr_prob = 0.1;
    f[3].crc_prob = 0.1;
    f[3].mul_weight = 0.9;
    f[3].register_prob = 0.6;
    f[3].rewrite_intensity = 0.25;
    return f;
  }();
  return families;
}

const FamilyProfile& family_profile(const std::string& name) {
  for (const FamilyProfile& f : benchmark_families()) {
    if (f.name == name) return f;
  }
  throw std::invalid_argument("unknown benchmark family: " + name);
}

namespace {

/// Builds a small FSM controller: binary-encoded state register with
/// mux/inc-based next-state logic; returns 1-bit control signals derived
/// from the state, which downstream stages use as mux selects.
std::vector<Bus> build_fsm(Synthesizer& syn, Rng& rng, const Bus& stimulus) {
  const int sb = rng.uniform_int(2, 3);
  Bus state = syn.reg_feedback(sb, "fsm", /*state_reg=*/true);

  syn.push_label("fsm");
  // Next-state candidates: increment and a stimulus-dependent jump.
  std::vector<GateId> inc_bits;
  {
    // state + 1 (hand-rolled so the gates are labeled "fsm").
    GateId carry = kNoGate;
    for (int i = 0; i < sb; ++i) {
      const GateId s = state.bits[static_cast<std::size_t>(i)];
      if (i == 0) {
        inc_bits.push_back(syn.cell(CellType::kInv, {s}));
        carry = s;
      } else {
        inc_bits.push_back(syn.cell(CellType::kXor2, {s, carry}));
        carry = syn.cell(CellType::kAnd2, {s, carry});
      }
    }
  }
  std::vector<GateId> jump_bits;
  for (int i = 0; i < sb; ++i) {
    jump_bits.push_back(syn.cell(
        CellType::kXor2,
        {state.bits[static_cast<std::size_t>(i)],
         stimulus.bits[static_cast<std::size_t>(i % stimulus.width())]}));
  }
  // Branch condition: state == terminal value (AND of literals).
  std::vector<GateId> lits;
  for (int i = 0; i < sb; ++i) {
    const GateId s = state.bits[static_cast<std::size_t>(i)];
    lits.push_back(rng.chance(0.5) ? s : syn.cell(CellType::kInv, {s}));
  }
  GateId cond = lits[0];
  for (std::size_t i = 1; i < lits.size(); ++i) {
    cond = syn.cell(CellType::kAnd2, {cond, lits[i]});
  }
  std::vector<GateId> next_bits;
  for (int i = 0; i < sb; ++i) {
    next_bits.push_back(syn.cell(CellType::kMux2,
                                 {inc_bits[static_cast<std::size_t>(i)],
                                  jump_bits[static_cast<std::size_t>(i)], cond}));
  }
  Bus next = syn.wrap(std::move(next_bits), {&state, &stimulus},
                      "fsm ( " + state.name + " , " + stimulus.name + " )");
  syn.connect_reg(state, next);

  // Control outputs: 2-3 distinct functions of the state bits.
  std::vector<Bus> ctrl;
  const int n_ctrl = rng.uniform_int(2, 3);
  for (int c = 0; c < n_ctrl; ++c) {
    const GateId a = state.bits[rng.index(state.bits.size())];
    const GateId b = state.bits[rng.index(state.bits.size())];
    GateId sig;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        sig = syn.cell(CellType::kAnd2, {a, syn.cell(CellType::kInv, {b})});
        break;
      case 1:
        sig = syn.cell(CellType::kOr2, {a, b});
        break;
      default:
        sig = syn.cell(CellType::kXor2, {a, b});
        break;
    }
    ctrl.push_back(syn.wrap({sig}, {&state}, "fsm ( " + state.name + " )"));
  }
  syn.pop_label();
  return ctrl;
}

}  // namespace

BlockResult build_block(Synthesizer& syn, const FamilyProfile& profile,
                        Rng& rng, std::vector<Bus> inputs, int width,
                        int stages) {
  std::vector<Bus> pool = std::move(inputs);
  std::vector<Bus> ctrl;  // 1-bit control signals

  // Optional FSM controller.
  if (rng.chance(profile.fsm_prob)) {
    ctrl = build_fsm(syn, rng, pool[0]);
  }

  // Optional counter (data-path register with feedback: the classic
  // ReIGNN confusable).
  if (rng.chance(profile.counter_prob)) {
    syn.push_label("counter");
    Bus c = syn.reg_feedback(width, "counter", /*state_reg=*/false);
    Bus next = syn.add(c, syn.constant(1, width));
    if (!ctrl.empty()) {
      next = syn.mux(c, next, ctrl[rng.index(ctrl.size())]);  // gated count
    }
    syn.connect_reg(c, next);
    syn.pop_label();
    pool.push_back(c);
  }

  // Optional LFSR.
  if (rng.chance(profile.lfsr_prob)) {
    Bus s = syn.reg_feedback(width, "lfsr", /*state_reg=*/false);
    syn.connect_reg(s, syn.lfsr_next(s));
    pool.push_back(s);
  }

  // Optional CRC unit.
  if (rng.chance(profile.crc_prob)) {
    Bus s = syn.reg_feedback(width, "crc", /*state_reg=*/false);
    syn.connect_reg(s, syn.crc_step(s, pool[rng.index(pool.size())]));
    pool.push_back(s);
  }

  auto pick = [&]() -> const Bus& { return pool[rng.index(pool.size())]; };
  auto pick_ctrl = [&]() -> Bus {
    if (!ctrl.empty() && rng.chance(0.7)) return ctrl[rng.index(ctrl.size())];
    // Derive a fresh control bit from a comparison.
    Bus c = syn.cmp_lt(pick(), pick());
    ctrl.push_back(c);
    return c;
  };

  // Datapath stages.
  for (int s = 0; s < stages; ++s) {
    // Weighted stage-kind selection.
    struct Choice {
      double w;
      int kind;
    };
    const std::vector<Choice> choices = {
        {1.2, 0},                  // add
        {0.7, 1},                  // sub
        {profile.mul_weight, 2},   // mul
        {0.8, 3},                  // cmp -> ctrl
        {0.9, 4},                  // bitwise
        {0.7, 5},                  // mux
        {0.6, 6},                  // shift/rotate
        {0.5, 7},                  // parity/reduce -> ctrl
        {0.4, 8},                  // decode
        {0.4, 9},                  // priority encode
        {0.5, 10},                 // alu
    };
    double total = 0;
    for (const auto& c : choices) total += c.w;
    double roll = rng.uniform(0, total);
    int kind = 0;
    for (const auto& c : choices) {
      if (roll < c.w) {
        kind = c.kind;
        break;
      }
      roll -= c.w;
    }

    Bus result;
    switch (kind) {
      case 0:
        result = syn.add(pick(), pick());
        break;
      case 1:
        result = syn.sub(pick(), pick());
        break;
      case 2:
        result = syn.mul(pick(), pick());
        break;
      case 3:
        ctrl.push_back(rng.chance(0.5) ? syn.cmp_eq(pick(), pick())
                                       : syn.cmp_lt(pick(), pick()));
        continue;
      case 4:
        switch (rng.uniform_int(0, 2)) {
          case 0:
            result = syn.bit_and(pick(), pick());
            break;
          case 1:
            result = syn.bit_or(pick(), pick());
            break;
          default:
            result = syn.bit_xor(pick(), pick());
            break;
        }
        break;
      case 5:
        result = syn.mux(pick(), pick(), pick_ctrl());
        break;
      case 6:
        result = rng.chance(0.5)
                     ? syn.shift_left(pick(), rng.uniform_int(1, width - 1))
                     : syn.rotate_left(pick(), rng.uniform_int(1, width - 1));
        break;
      case 7:
        switch (rng.uniform_int(0, 2)) {
          case 0:
            ctrl.push_back(syn.parity(pick()));
            break;
          case 1:
            ctrl.push_back(syn.reduce_and(pick()));
            break;
          default:
            ctrl.push_back(syn.reduce_or(pick()));
            break;
        }
        continue;
      case 8: {
        // Decode a narrow slice; keep only `width` outputs to stay in-pool.
        Bus d = syn.decode(pick());
        d.bits.resize(static_cast<std::size_t>(std::min(d.width(), width)));
        while (d.width() < width) d.bits.push_back(d.bits[0]);
        result = d;
        break;
      }
      case 9: {
        Bus e = syn.priority_encode(pick());
        while (e.width() < width) e.bits.push_back(e.bits[0]);
        e.bits.resize(static_cast<std::size_t>(width));
        result = e;
        break;
      }
      default: {
        // Mini-ALU: mux(add, xor) under a control bit.
        syn.push_label("alu");
        const Bus& a = pick();
        const Bus& b = pick();
        Bus sum = syn.add(a, b);
        Bus xr = syn.bit_xor(a, b);
        result = syn.mux(sum, xr, pick_ctrl());
        syn.pop_label();
        break;
      }
    }

    if (rng.chance(profile.register_prob)) {
      result = syn.reg_bank(result, "datapath", /*state_reg=*/false);
    }
    pool.push_back(result);
  }

  BlockResult out;
  out.pool = std::move(pool);
  out.ctrl = std::move(ctrl);
  return out;
}

GeneratedDesign finalize_design(Synthesizer& syn, const FamilyProfile& profile,
                                Rng& rng, const std::string& design_name,
                                const std::string& context) {
  GeneratedDesign out;
  out.rtl_text = syn.rtl_text();
  out.reg_rtl = syn.reg_rtl();
  Netlist raw = syn.take_netlist();
  raw.set_source(profile.name);
  // Technology diversification + synthesis cleanup.
  Netlist diversified = logic_rewrite(raw, rng, profile.rewrite_intensity);
  out.netlist = cleanup(diversified);
  out.netlist.set_name(design_name);
  out.netlist.validate();
  // Post-synthesis lint seam: refuse to emit a structurally broken design
  // (rule ids and severities in docs/ARCHITECTURE.md §6).
  enforce_clean(lint_netlist(out.netlist), context + " " + design_name);
  return out;
}

GeneratedDesign generate_design(const FamilyProfile& profile, Rng& rng,
                                const std::string& design_name) {
  Synthesizer syn(design_name);
  const int width = rng.uniform_int(profile.min_width, profile.max_width);
  const int stages = rng.uniform_int(profile.min_stages, profile.max_stages);

  // Primary inputs.
  std::vector<Bus> inputs;
  const int n_inputs = rng.uniform_int(2, 3);
  for (int i = 0; i < n_inputs; ++i) {
    inputs.push_back(syn.input("in" + std::to_string(i), width));
  }

  BlockResult blk =
      build_block(syn, profile, rng, std::move(inputs), width, stages);
  std::vector<Bus>& pool = blk.pool;

  // Ensure the design is sequential: register the last stage if none exists.
  if (syn.netlist().registers().empty()) {
    pool.push_back(syn.reg_bank(pool.back(), "datapath", false));
  }

  // Mark outputs: a couple of pool buses (prefer late stages).
  const int n_out = rng.uniform_int(1, 2);
  for (int i = 0; i < n_out; ++i) {
    syn.mark_outputs(pool[pool.size() - 1 - static_cast<std::size_t>(i) %
                                                pool.size()]);
  }

  return finalize_design(syn, profile, rng, design_name, "rtlgen");
}

}  // namespace nettag
