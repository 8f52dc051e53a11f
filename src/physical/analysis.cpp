#include "physical/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/check.hpp"

namespace nettag {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// ns of delay per (kOhm * fF) of drive/load product. Calibrated so typical
/// loads contribute delay comparable to cell intrinsic delay.
constexpr double kRcToNs = 0.02;
constexpr double kSetupTime = 0.04;   // ns
constexpr double kClkToQ = 0.06;      // ns
constexpr double kVdd = 1.1;          // V

}  // namespace

Parasitics extract_parasitics(const Netlist& nl, const Placement& pl) {
  Parasitics para;
  para.nets.resize(nl.size());
  for (const Gate& g : nl.gates()) {
    NetParasitics& net = para.nets[static_cast<std::size_t>(g.id)];
    const double len = net_hpwl(nl, pl, g.id);
    net.wire_res = para.r_per_um * len;
    net.wire_cap = para.c_per_um * len;
    for (GateId s : g.fanouts) {
      net.pin_cap += cell_info(nl.gate(s).type).input_cap;
    }
  }
  return para;
}

TimingReport run_sta(const Netlist& nl, const Parasitics& para,
                     double clock_period) {
  TimingReport rep;
  const std::size_t n = nl.size();
  rep.arrival.assign(n, 0.0);
  rep.gate_delay.assign(n, 0.0);
  rep.slack.assign(n, kInf);
  rep.clock_period = clock_period;

  // Arrival propagation in topological order: ports, constants and
  // registers launch, and every other gate follows all of its fanins.
  for (const GateId id : nl.topo_order()) {
    const Gate& g = nl.gate(id);
    const NetParasitics& net = para.nets[static_cast<std::size_t>(id)];
    const CellInfo& info = cell_info(g.type);
    // Stage delay: cell intrinsic + drive * load + Elmore wire term.
    const double drive_delay = info.drive_res * net.load() * kRcToNs;
    const double wire_delay =
        net.wire_res * (net.wire_cap / 2 + net.pin_cap) * kRcToNs;
    const double stage = info.intrinsic_delay + drive_delay + wire_delay;
    rep.gate_delay[static_cast<std::size_t>(id)] = stage;

    if (g.type == CellType::kPort || g.type == CellType::kConst0 ||
        g.type == CellType::kConst1) {
      rep.arrival[static_cast<std::size_t>(id)] = drive_delay + wire_delay;
      continue;
    }
    if (g.type == CellType::kDff) {
      rep.arrival[static_cast<std::size_t>(id)] =
          kClkToQ + drive_delay + wire_delay;
      continue;
    }
    double worst_in = 0.0;
    for (GateId f : g.fanins) {
      worst_in = std::max(worst_in, rep.arrival[static_cast<std::size_t>(f)]);
    }
    rep.arrival[static_cast<std::size_t>(id)] = worst_in + stage;
  }

  rep.wns = kInf;
  for (const Gate& g : nl.gates()) {
    double endpoint_arrival = -kInf;
    if (g.type == CellType::kDff) {
      endpoint_arrival = rep.arrival[static_cast<std::size_t>(g.fanins[0])];
    } else if (g.is_primary_output) {
      endpoint_arrival = rep.arrival[static_cast<std::size_t>(g.id)];
    } else {
      continue;
    }
    const double required = clock_period - kSetupTime;
    const double slack = required - endpoint_arrival;
    rep.slack[static_cast<std::size_t>(g.id)] = slack;
    rep.endpoints.push_back(g.id);
    rep.wns = std::min(rep.wns, slack);
    rep.critical_path = std::max(rep.critical_path, endpoint_arrival);
  }
  if (rep.endpoints.empty()) rep.wns = 0.0;
  return rep;
}

TimingReport netlist_stage_sta(const Netlist& nl, double clock_period) {
  Parasitics para;
  para.nets.resize(nl.size());
  for (const Gate& g : nl.gates()) {
    NetParasitics& net = para.nets[static_cast<std::size_t>(g.id)];
    for (GateId s : g.fanouts) {
      net.pin_cap += cell_info(nl.gate(s).type).input_cap;
    }
  }
  return run_sta(nl, para, clock_period);
}

PowerReport netlist_stage_power(const Netlist& nl) {
  Parasitics para;
  para.nets.resize(nl.size());
  for (const Gate& g : nl.gates()) {
    NetParasitics& net = para.nets[static_cast<std::size_t>(g.id)];
    for (GateId s : g.fanouts) {
      net.pin_cap += cell_info(nl.gate(s).type).input_cap;
    }
  }
  return run_power(nl, para);
}

PowerReport run_power(const Netlist& nl, const Parasitics& para,
                      double input_activity, double input_prob,
                      double clock_ghz) {
  PowerReport rep;
  const std::size_t n = nl.size();
  rep.prob.assign(n, 0.0);
  rep.toggle.assign(n, 0.0);
  rep.gate_power.assign(n, 0.0);

  // Exact per-gate pairwise-joint propagation (independence assumption):
  // each signal is modeled by its marginal P(x=1) and per-cycle toggle
  // probability t = P(x(c) != x(c+1)), with symmetric transitions
  // P(0->1) = P(1->0) = t/2. For a gate we enumerate all (before, after)
  // input pairs — exact on fanout-free logic, an approximation under
  // reconvergence. Register outputs are resolved by a short fixed-point
  // (Q(c+1) = D(c), so a register's statistics equal its D statistics at
  // steady state).
  //
  // The enumeration allocates nothing: per-input factors and the cell's
  // truth table live in fixed-size arrays on the stack, sized by the
  // library's arity bound.
  // Each pattern probability is the same product, in the same order, as a
  // per-pattern evaluation of those factors.
  auto propagate_gate = [&](const Gate& g) {
    const int k = static_cast<int>(g.fanins.size());
    NETTAG_CHECK(k <= kMaxCellInputs,
                 "run_power: gate '" + g.name + "' has " + std::to_string(k) +
                     " fanins; library cells have at most " +
                     std::to_string(kMaxCellInputs));
    // [input][bit]: P(x_i = bit), and P(x_i flips | x_i = bit) and its
    // complement — each input flips with probability t_i/2 from state 1
    // (resp. from state 0), i.e. P(flip | x0) = (t/2) / P(x0).
    double p_bit[kMaxCellInputs][2] = {};
    double p_flip[kMaxCellInputs][2] = {};
    double p_stay[kMaxCellInputs][2] = {};
    for (int i = 0; i < k; ++i) {
      const std::size_t f =
          static_cast<std::size_t>(g.fanins[static_cast<std::size_t>(i)]);
      const double p1 = rep.prob[f];
      // Clamp toggles to the feasible region t/2 <= min(p, 1-p).
      const double half_t =
          std::min(rep.toggle[f], 2.0 * std::min(p1, 1.0 - p1)) / 2.0;
      for (int b = 0; b < 2; ++b) {
        const double p_b = b ? p1 : 1.0 - p1;
        p_bit[i][b] = p_b;
        p_flip[i][b] = p_b > 1e-12 ? half_t / p_b : 0.0;
        p_stay[i][b] = 1.0 - p_flip[i][b];
      }
    }
    const unsigned patterns = 1u << k;  // bit i of a pattern = input i
    bool y[1u << kMaxCellInputs] = {};
    for (unsigned m = 0; m < patterns; ++m) y[m] = cell_eval_bits(g.type, m);
    double p_one = 0.0, t_out = 0.0;
    for (unsigned m0 = 0; m0 < patterns; ++m0) {
      // Probability of the "before" assignment.
      double pm0 = 1.0;
      for (int i = 0; i < k; ++i) pm0 *= p_bit[i][(m0 >> i) & 1u];
      if (pm0 <= 0.0) continue;
      if (y[m0]) p_one += pm0;
      for (unsigned m1 = 0; m1 < patterns; ++m1) {
        // Conditional probability of the "after" assignment.
        double pm01 = pm0;
        for (int i = 0; i < k; ++i) {
          const unsigned b0 = (m0 >> i) & 1u;
          pm01 *= ((m1 >> i) & 1u) == b0 ? p_stay[i][b0] : p_flip[i][b0];
        }
        if (pm01 <= 0.0) continue;
        if (y[m1] != y[m0]) t_out += pm01;
      }
    }
    rep.prob[static_cast<std::size_t>(g.id)] = std::clamp(p_one, 0.0, 1.0);
    rep.toggle[static_cast<std::size_t>(g.id)] = std::clamp(t_out, 0.0, 1.0);
  };

  // Sources.
  for (const Gate& g : nl.gates()) {
    const std::size_t i = static_cast<std::size_t>(g.id);
    switch (g.type) {
      case CellType::kPort:
        rep.prob[i] = input_prob;
        rep.toggle[i] = input_activity;
        break;
      case CellType::kConst0:
        rep.prob[i] = 0.0;
        rep.toggle[i] = 0.0;
        break;
      case CellType::kConst1:
        rep.prob[i] = 1.0;
        rep.toggle[i] = 0.0;
        break;
      case CellType::kDff:
        rep.prob[i] = 0.5;  // fixed-point seed
        rep.toggle[i] = input_activity;
        break;
      default:
        break;
    }
  }
  // Fixed-point sweeps: propagate combinational logic, then pull register
  // statistics from their D inputs. Three sweeps suffice in practice
  // (statistics contract quickly through logic). When no register output
  // drives anything (every register cone: its one register is the output),
  // the pull cannot change any gate's inputs, so sweeps 2 and 3 would
  // recompute sweep 1 bit for bit; one sweep then gives the same report.
  // Each sweep visits gates in topological order, so a gate reads the
  // statistics its fanins computed in the same sweep.
  const bool registers_have_fanout =
      std::any_of(nl.gates().begin(), nl.gates().end(), [](const Gate& g) {
        return g.type == CellType::kDff && !g.fanouts.empty();
      });
  const int sweeps = registers_have_fanout ? 3 : 1;
  const std::vector<GateId> order = nl.topo_order();
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (const GateId id : order) {
      const Gate& g = nl.gate(id);
      if (g.type == CellType::kPort || g.type == CellType::kConst0 ||
          g.type == CellType::kConst1 || g.type == CellType::kDff) {
        continue;
      }
      propagate_gate(g);
    }
    for (const Gate& g : nl.gates()) {
      if (g.type != CellType::kDff) continue;
      const std::size_t d = static_cast<std::size_t>(g.fanins[0]);
      rep.prob[static_cast<std::size_t>(g.id)] = rep.prob[d];
      rep.toggle[static_cast<std::size_t>(g.id)] = rep.toggle[d];
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const Gate& g = nl.gate(static_cast<GateId>(i));
    const NetParasitics& net = para.nets[i];
    // Dynamic: 0.5 * C * V^2 * f * alpha. C in fF, f in GHz -> power in uW.
    const double dyn =
        0.5 * net.load() * kVdd * kVdd * clock_ghz * rep.toggle[i];
    const double leak = cell_info(g.type).leakage * 1e-3;  // nW -> uW
    rep.gate_power[i] = dyn + leak;
    rep.dynamic_power += dyn;
    rep.leakage_power += leak;
  }
  return rep;
}

AreaReport run_area(const Netlist& nl, double utilization) {
  AreaReport rep;
  for (const Gate& g : nl.gates()) rep.cell_area += cell_info(g.type).area;
  rep.total_area = rep.cell_area / utilization;
  return rep;
}

ToolEstimate synthesis_estimate(const Netlist& nl, double utilization,
                                double default_activity, double clock_ghz) {
  ToolEstimate est;
  est.area = run_area(nl, utilization).total_area;
  for (const Gate& g : nl.gates()) {
    // Pin loads only (no placement, so no wire caps), flat default activity.
    double pin_cap = 0.0;
    for (GateId s : g.fanouts) pin_cap += cell_info(nl.gate(s).type).input_cap;
    est.power += 0.5 * pin_cap * kVdd * kVdd * clock_ghz * default_activity;
    est.power += cell_info(g.type).leakage * 1e-3;
  }
  return est;
}

}  // namespace nettag
