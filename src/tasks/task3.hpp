// Task 3: endpoint register slack prediction at the netlist stage (paper
// §III-B, Table IV right). Predict sign-off (post-layout, post-optimization)
// timing slack for each register endpoint given only the pre-layout netlist
// — hard because layout optimization restructures the graph [2].
//
// NetTAG: frozen cone [CLS] embeddings + gradient-boosted trees (gbdt.hpp).
// Baseline: the timing GNN of [2] adapted to the netlist stage — supervised
// GCN over structural+physical features, regressing slack at register nodes.
#pragma once

#include "core/dataset.hpp"
#include "core/nettag.hpp"
#include "util/metrics.hpp"

namespace nettag {

struct Task3Options {
  int num_test_designs = 8;
  int gnn_steps = 700;
};

struct Task3Row {
  std::string design;
  RegressionReport gnn;
  RegressionReport nettag;
};

struct Task3Result {
  std::vector<Task3Row> rows;
  RegressionReport gnn_avg;
  RegressionReport nettag_avg;
};

Task3Result run_task3(NetTag& model, const Corpus& corpus,
                      const Task3Options& options, Rng& rng);

}  // namespace nettag
