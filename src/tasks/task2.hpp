// Task 2: sequential state/data register identification (paper §III-B,
// Table IV left). Distinguish FSM state registers from datapath registers
// (counters/LFSRs/CRCs are the classic confusables) — the ReIGNN problem.
//
// NetTAG: frozen register-cone [CLS] embeddings + class-balanced MLP head.
// Baseline (ReIGNN): supervised GCN over the full design graph, classifying
// register nodes from structural features.
#pragma once

#include "core/dataset.hpp"
#include "core/nettag.hpp"
#include "tasks/finetune.hpp"
#include "util/metrics.hpp"

namespace nettag {

struct Task2Options {
  FinetuneOptions head;
  int gnn_steps = 240;
};

struct Task2Row {
  std::string design;
  BinaryReport reignn;
  BinaryReport nettag;
};

struct Task2Result {
  std::vector<Task2Row> rows;
  BinaryReport reignn_avg;
  BinaryReport nettag_avg;
};

Task2Result run_task2(NetTag& model, const Corpus& corpus,
                      const Task2Options& options, Rng& rng);

}  // namespace nettag
