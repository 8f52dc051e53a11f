// Pre-trained AIG-encoder comparison (paper Fig. 5).
//
// The baseline circuit encoders (FGNN, DeepGate3) only handle and-inverter
// graphs, so the comparison runs Task 1 on AIG-converted netlists:
//  * FGNN-like    — GCN pre-trained with graph contrastive learning on AIG
//                   cones (functionally-equivalent rewrites as positives),
//                   frozen node embeddings + MLP head.
//  * DeepGate-like— GCN pre-trained to predict per-node signal probability
//                   from random simulation (DeepGate's supervision), frozen
//                   embeddings + MLP head.
//  * ExprLLM-only — NetTAG's text encoder alone on per-gate expressions.
//  * NetTAG       — full model on the AIG-formatted TAG.
#pragma once

#include "core/dataset.hpp"
#include "core/nettag.hpp"
#include "tasks/finetune.hpp"
#include "util/metrics.hpp"

namespace nettag {

struct AigCompareOptions {
  FinetuneOptions head;
  int pretrain_steps = 120;  ///< baseline encoder pre-training
};

struct AigCompareResult {
  ClassificationReport fgnn;
  ClassificationReport deepgate;
  ClassificationReport expr_llm_only;
  ClassificationReport nettag;
};

/// Runs the Fig. 5 comparison: Task 1 (gate function identification) on the
/// AIG-converted corpus, averaging per-design reports.
AigCompareResult run_aig_comparison(NetTag& model, const Corpus& corpus,
                                    const AigCompareOptions& options, Rng& rng);

}  // namespace nettag
