// TrainState: the optimizer-and-progress section of a training checkpoint
// (core/nettag.hpp), so an interrupted pre-training run can resume
// *bit-identically* (docs/ARCHITECTURE.md §8): the phase the run was in, the
// next step to execute, the training-loop RNG stream, Adam's bias-correction
// count and moment estimates, the values of parameters trained outside the
// model (the pretraining heads and the [MASK] embedding), and the loss
// history so a resumed run reports the same curve.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace nettag {

/// Checkpointing policy the pretraining loop follows (default: off).
struct TrainCheckpoint {
  /// Checkpoint file prefix (empty: no checkpoints are written). Each save
  /// replaces `<prefix>.ckpt` with one atomic rename, so the prefix holds
  /// one whole checkpoint at any instant.
  std::string prefix;
  /// Save every N completed steps of the current phase (<= 0: only at phase
  /// boundaries and on stop).
  int every = 0;
  /// Cooperative stop flag (util/signal.hpp): when set, the loop finishes
  /// the step in flight, checkpoints, and returns with `interrupted`.
  const std::atomic<bool>* stop = nullptr;
  /// Test hook: behave exactly like `stop` after this many training-loop
  /// iterations, counted across phases (-1: disabled). Lets tests interrupt
  /// at a precise, reproducible point without racing a real signal.
  long halt_after_steps = -1;

  bool enabled() const { return !prefix.empty(); }
};

struct TrainState {
  /// Training phase the checkpoint was taken in: "expr" (step 1), "tag"
  /// (step 2), or "done".
  std::string phase;
  /// First step of `phase` that has NOT been executed yet (0 at a phase
  /// boundary, i.e. the step-1/step-2 handoff checkpoint).
  std::uint64_t next_step = 0;
  /// Serialized mt19937_64 stream of the training loop (Rng::state()).
  /// Empty at a phase boundary: the resumed run derives the phase stream
  /// the same way an uninterrupted run would.
  std::string rng_state;
  /// Adam bias-correction count and per-parameter moment estimates, in the
  /// optimizer's parameter-list order. Empty moments mean "fresh optimizer"
  /// (again the phase-boundary case).
  long adam_t = 0;
  std::vector<Mat> adam_m;
  std::vector<Mat> adam_v;
  /// Flat values of trainable tensors that live outside the model,
  /// concatenated in a fixed order: class head, size head, [MASK]
  /// embedding.
  std::vector<float> extra_params;
  /// Per-step losses of the current phase, up to (excluding) next_step.
  std::vector<float> loss_history;
  /// Losses of the already-completed earlier phase (step-1 expression
  /// losses once the run is in "tag"), so the final report is identical.
  std::vector<float> prior_losses;
  /// Size of the training set the loop was iterating (sanity check: a
  /// resume that prepared a different dataset cannot be bit-identical).
  std::uint64_t dataset_size = 0;
  /// Streaming pre-training: index of the corpus shard the loop was
  /// consuming (core/corpus_stream.hpp); 0 for in-memory training.
  std::uint64_t shard_index = 0;
};

/// Concatenates the values of `params` into one flat vector, list order
/// (TrainState::extra_params producer).
std::vector<float> flatten_param_values(const std::vector<Tensor>& params);

/// Inverse of flatten_param_values: writes `values` back into `params`.
/// Throws std::runtime_error (before touching anything) when the total
/// element count does not match.
void restore_param_values(const std::vector<Tensor>& params,
                          const std::vector<float>& values);

}  // namespace nettag
