// Task 4: overall circuit power/area prediction at the netlist stage (paper
// §III-B, Table V). Predict post-layout area and power from the pre-layout
// netlist, in two label scenarios: w/o layout optimization and w/ layout
// optimization (the PowPrediCT setting, where restructuring makes
// netlist-stage estimates unreliable).
//
// Three predictors per target:
//  * EDA tool  — the synthesis-stage estimate (synthesis_estimate()),
//  * GNN       — PowPrediCT-style supervised graph-level GCN regressor,
//  * NetTAG    — frozen circuit embeddings (+ tool estimate as a feature,
//                like PowPrediCT consumes netlist-stage reports) +
//                gradient-boosted trees (gbdt.hpp).
#pragma once

#include "core/dataset.hpp"
#include "core/nettag.hpp"
#include "util/metrics.hpp"

namespace nettag {

struct Task4Options {
  int gnn_steps = 300;
};

/// One table cell group: metric x scenario.
struct Task4Cell {
  RegressionReport tool;
  RegressionReport gnn;
  RegressionReport nettag;
};

struct Task4Result {
  Task4Cell area_wo_opt;
  Task4Cell area_w_opt;
  Task4Cell power_wo_opt;
  Task4Cell power_w_opt;
};

Task4Result run_task4(NetTag& model, const Corpus& corpus,
                      const Task4Options& options, Rng& rng);

}  // namespace nettag
