// Parasitic extraction, static timing analysis, power analysis, and area —
// the PrimeTime/SPEF substitute that produces all physical labels
// (Task 3 endpoint slack, Task 4 power/area) and the layout graphs consumed
// by the auxiliary layout encoder.
//
// Units: distances um, capacitance fF, resistance kOhm, time ns, power uW
// (dynamic) / nW (leakage, converted). The absolute calibration is
// approximate; what the experiments rely on is that the model is monotone
// and structurally faithful (load-dependent delay, activity-dependent power,
// wirelength-dependent parasitics).
#pragma once

#include <array>
#include <vector>

#include "netlist/netlist.hpp"
#include "physical/placement.hpp"

namespace nettag {

/// Per-net parasitics (indexed by driver gate id) — the SPEF substitute.
struct NetParasitics {
  double wire_res = 0.0;  ///< kOhm
  double wire_cap = 0.0;  ///< fF
  double pin_cap = 0.0;   ///< total sink input-pin cap, fF
  double load() const { return wire_cap + pin_cap; }
};

struct Parasitics {
  std::vector<NetParasitics> nets;  ///< indexed by gate id
  double r_per_um = 0.08;           ///< wire resistance per um
  double c_per_um = 0.20;           ///< wire capacitance per um
};

/// Extracts RC parasitics from placement (HPWL wire model).
Parasitics extract_parasitics(const Netlist& nl, const Placement& pl);

/// Static timing analysis result.
struct TimingReport {
  std::vector<double> arrival;      ///< per gate-output arrival time, ns
  std::vector<double> gate_delay;   ///< per gate stage delay (cell + wire), ns
  std::vector<double> slack;        ///< per endpoint gate id; +inf elsewhere
  std::vector<GateId> endpoints;    ///< DFFs (D pin) and primary outputs
  double clock_period = 0.0;
  double wns = 0.0;                 ///< worst negative-or-not slack
  double critical_path = 0.0;       ///< max arrival
};

/// Runs STA. Endpoints are register D-pins and primary outputs; sources are
/// ports (arrival 0) and register Q-pins (clk->q delay).
TimingReport run_sta(const Netlist& nl, const Parasitics& para,
                     double clock_period);

/// Netlist-stage (pre-layout) STA: no placement, so wire parasitics are
/// zero and loads are pin caps only. This is the timing estimate available
/// to *any* netlist-stage predictor (it feeds both the Task 3 baseline and
/// the NetTAG fine-tuning features, matching how [2] consumes netlist-stage
/// timing).
TimingReport netlist_stage_sta(const Netlist& nl, double clock_period = 0.0);

/// Power analysis result.
struct PowerReport {
  std::vector<double> prob;       ///< P(signal == 1) per gate output
  std::vector<double> toggle;     ///< transition density per gate output
  std::vector<double> gate_power; ///< per gate total power, uW
  double dynamic_power = 0.0;     ///< uW
  double leakage_power = 0.0;     ///< uW
  double total() const { return dynamic_power + leakage_power; }
};

/// Propagates signal probabilities and transition densities (Najm-style,
/// independence assumption, exact per-cell enumeration over <=4 inputs) and
/// integrates switching power over net loads.
PowerReport run_power(const Netlist& nl, const Parasitics& para,
                      double input_activity = 0.2, double input_prob = 0.5,
                      double clock_ghz = 1.0);

/// Netlist-stage power analysis: propagated activity with pin-cap-only
/// loads (the "power report" a netlist-stage predictor can legitimately
/// compute; it misses wire capacitance and layout restructuring).
PowerReport netlist_stage_power(const Netlist& nl);

/// Area summary.
struct AreaReport {
  double cell_area = 0.0;   ///< sum of cell areas, um^2
  double total_area = 0.0;  ///< with utilization + routing overhead
};

AreaReport run_area(const Netlist& nl, double utilization = 0.7);

/// Netlist-stage estimate as a synthesis tool would report it (the
/// "EDA Tool" column of Table V): cell-area sum with the target utilization,
/// and power under a flat default switching assumption (no propagated
/// activity, no wire loads) — accurate for area, badly off for power, and
/// blind to layout-stage restructuring. This is the baseline NetTAG beats.
struct ToolEstimate {
  double area = 0.0;   ///< um^2
  double power = 0.0;  ///< uW
};

ToolEstimate synthesis_estimate(const Netlist& nl, double utilization = 0.7,
                                double default_activity = 0.2,
                                double clock_ghz = 1.0);

/// Layout graph: the netlist topology annotated with physical quantities
/// extracted from placement/parasitics/timing — what the layout encoder
/// consumes for cross-stage alignment (paper Fig. 3(c)).
struct LayoutGraph {
  /// per node: {wire_cap, wire_res, load, stage_delay, x, y}
  std::vector<std::array<double, 6>> node_feats;
  std::vector<std::pair<int, int>> edges;  ///< driver -> sink
};

}  // namespace nettag
