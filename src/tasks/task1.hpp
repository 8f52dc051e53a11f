// Task 1: combinational gate function identification (paper §III-B,
// Table III). Given a flattened netlist, recover which RTL block type each
// logic gate implements — the GNN-RE reverse-engineering problem.
//
// NetTAG: frozen per-gate embeddings + MLP head, fine-tuned on training
// designs, evaluated per held-out design.
// Baseline (GNN-RE): a supervised GCN node classifier on structural one-hot
// features, trained end-to-end on the same split.
#pragma once

#include "core/dataset.hpp"
#include "core/nettag.hpp"
#include "tasks/finetune.hpp"
#include "util/metrics.hpp"

namespace nettag {

struct Task1Options {
  int num_test_designs = 9;     ///< Table III lists 9 designs
  FinetuneOptions head;         ///< NetTAG fine-tuning head
  int gnn_steps = 240;          ///< baseline supervised training steps
};

struct Task1Row {
  std::string design;
  ClassificationReport gnnre;
  ClassificationReport nettag;
};

struct Task1Result {
  std::vector<Task1Row> rows;
  ClassificationReport gnnre_avg;
  ClassificationReport nettag_avg;
};

/// Runs the full Task 1 protocol on a corpus. Designs are shuffled; the
/// first `num_test_designs` become the held-out test set.
Task1Result run_task1(NetTag& model, const Corpus& corpus,
                      const Task1Options& options, Rng& rng);

/// Per-design labeled logic-gate extraction shared with the Fig. 5 bench:
/// gate row indices (into the netlist) and their Task-1 class ids.
void task1_gate_labels(const Netlist& nl, std::vector<int>* gate_rows,
                       std::vector<int>* labels);

/// Averages a set of classification reports element-wise (the "Avg." row).
ClassificationReport average_reports(const std::vector<ClassificationReport>& reports);

}  // namespace nettag
