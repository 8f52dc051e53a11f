// Self-supervised pre-training (paper §II-D, §II-E):
//
//   Step 1 — Objective #1: symbolic-expression contrastive learning for
//            ExprLLM (InfoNCE over equivalence-transformed expression pairs).
//   Step 2 — with ExprLLM frozen, TAGFormer trains on:
//            #2.1 masked gate-type reconstruction (CE over logic-cell classes),
//            #2.2 netlist graph contrastive learning (InfoNCE, positives are
//                 functionally-equivalent rewrites),
//            #2.3 netlist size prediction (MSE on per-class gate counts),
//            #3   cross-stage contrastive alignment with frozen RTL and
//                 layout encoder embeddings.
//
// Each of these paper objectives has an on/off switch so the Fig. 6
// ablation re-runs pre-training with single objectives removed. Step 1's
// auxiliary expression-property objective (DESIGN.md §6.1) has none: it is
// always on.
#pragma once

#include <vector>

#include "core/corpus_stream.hpp"
#include "core/dataset.hpp"
#include "core/nettag.hpp"
#include "model/gcn.hpp"
#include "model/text_encoder.hpp"
#include "nn/train_state.hpp"
#include "util/rng.hpp"

namespace nettag {

struct PretrainOptions {
  // Step 1 (ExprLLM).
  int expr_steps = 220;
  std::size_t max_expressions = 2400;
  bool objective_expr_cl = true;  ///< #1

  // Step 2 (TAGFormer).
  int tag_steps = 200;
  std::size_t max_cones = 160;
  bool objective_mask = true;      ///< #2.1
  bool objective_graph_cl = true;  ///< #2.2
  bool objective_size = true;      ///< #2.3
  bool objective_align = true;     ///< #3

  // Auxiliary RTL / layout encoders (only needed when aligning).
  int aux_steps = 50;

  /// Crash-safe checkpointing + cooperative interruption (off by default —
  /// a default TrainCheckpoint leaves training behavior untouched).
  TrainCheckpoint checkpoint;
};

struct PretrainReport {
  float expr_loss_first = 0, expr_loss_last = 0;
  float tag_loss_first = 0, tag_loss_last = 0;
  std::size_t expr_dataset_size = 0;
  std::size_t cones_used = 0;
  double seconds_step1 = 0, seconds_step2 = 0;
  /// Per-step losses of the two phases (a resumed run reproduces the
  /// uninterrupted curve exactly — the bit-identical-resume check).
  std::vector<float> expr_losses;
  std::vector<float> tag_losses;
  /// True when the run stopped early on options.checkpoint.stop /
  /// halt_after_steps; the checkpoint prefix then holds a resumable state.
  bool interrupted = false;
};

/// Contrastive pre-training for the auxiliary RTL text encoder (positives:
/// statement-order-shuffled RTL).
void pretrain_rtl_encoder(TextEncoder& encoder,
                          const std::vector<std::string>& rtl_texts,
                          const PretrainOptions& options, Rng& rng);

/// Graph-contrastive pre-training for the auxiliary layout encoder
/// (positives: parasitic-jittered copies of the same layout graph).
void pretrain_layout_encoder(Gcn& encoder,
                             const std::vector<LayoutGraph>& layouts,
                             const PretrainOptions& options, Rng& rng);

/// Full two-step pre-training of NetTAG on a corpus. Builds and trains the
/// auxiliary encoders internally when alignment is enabled (they are used
/// only during pre-training, per the paper).
///
/// With options.checkpoint enabled, the run periodically saves a checkpoint
/// with a trainer section (core/nettag.hpp), and stops cleanly (after the step
/// in flight, with a final checkpoint) when the stop flag fires.
PretrainReport pretrain(NetTag& model, const Corpus& corpus,
                        const PretrainOptions& options, Rng& rng);

/// Continues an interrupted pretrain from options.checkpoint.prefix. The
/// caller must reconstruct model / options / corpus / rng exactly as the
/// original run (at any NETTAG_THREADS width); the result is then
/// bit-identical to the uninterrupted run: deterministic preparation
/// is replayed from re-derived RNG streams, while trained state (model
/// parameters, head values, Adam moments, the loop RNG) is restored from
/// the checkpoint. Throws std::runtime_error on a missing/corrupt
/// checkpoint or a dataset-size mismatch.
PretrainReport resume_pretrain(NetTag& model, const Corpus& corpus,
                               const PretrainOptions& options, Rng& rng);

/// Streaming pre-training over a sharded out-of-core corpus
/// (core/corpus_stream.hpp): shards are loaded one at a time, trained on,
/// and discarded, so peak RAM is bounded by the largest shard instead of
/// the corpus. Each shard runs the full two-step curriculum on a slice of
/// the global step budget (shard s of S gets steps*(s+1)/S - steps*s/S of
/// each phase); embedded shard expressions are reused when the model's
/// k_hop matches the corpus manifest. Checkpoints record the shard index
/// plus the intra-shard phase/step cursor, so resume lands mid-corpus.
///
/// The returned report aggregates the shards this call actually trained
/// (loss curves concatenated in shard order).
PretrainReport pretrain_streaming(NetTag& model, const ShardedCorpus& corpus,
                                  const PretrainOptions& options, Rng& rng);

/// Continues an interrupted pretrain_streaming from
/// options.checkpoint.prefix. Same reconstruction contract as
/// resume_pretrain; committed shards before the checkpoint's shard index
/// are skipped by consuming their RNG forks (never reloaded), and the
/// remainder of the corpus trains bit-identically to an uninterrupted run.
PretrainReport resume_pretrain_streaming(NetTag& model,
                                         const ShardedCorpus& corpus,
                                         const PretrainOptions& options,
                                         Rng& rng);

}  // namespace nettag
