// The training workload: the library's public training pipeline, in-process.
//   build_corpus_stream (hierarchical, sharded: generate -> lint -> write)
//   -> ShardedCorpus + pretrain_streaming
//   -> NetTag::cone_feature + ClassifierHead::fit on Task-2 labels
//   -> held-out Task-2 evaluation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/nettag.hpp"
#include "core/pretrain.hpp"
#include "nn/tape.hpp"

namespace benchkit {

struct TrainSize {
  int designs_per_family = 4;  ///< hierarchical designs per family (x4)
  int designs_per_shard = 4;
  int expr_steps = 40;
  int tag_steps = 40;
  int fit_steps = 200;
};

/// The smoke and probe size: one design per family, a few steps.
TrainSize tiny_train_size();

struct PipelineRun {
  double wall_s = 0;   ///< generate -> lint -> pretrain -> finetune -> eval
  double setup_s = 0;  ///< until the corpus directory and the model exist
  double corpus_s = 0, pretrain_s = 0, features_s = 0, fit_s = 0, eval_s = 0;
  std::vector<double> cone_feature_ms;  ///< per-cone embedding latency
  std::size_t designs = 0, cones = 0, gates = 0, shards = 0;
  std::size_t shard_bytes = 0, expressions = 0;
  std::size_t train_cones = 0, test_cones = 0, state_cones = 0;
  std::vector<double> shard_commit_ms;  ///< intervals between on_shard calls
  std::vector<double> shard_load_ms;
  nettag::PretrainReport report;
  double fit_step_ms = 0;
  double balanced_accuracy = 0;
  nettag::plan::Stats plan_delta;  ///< over pretrain + finetune + eval
  std::uint64_t training_steps = 0;
  bool ok = true;
  std::vector<std::string> errors;
};

/// One pipeline run under `workdir` (the corpus directory is removed first
/// and after). The corpus comes from kCorpusSeed: generated corpora differ
/// in size and peak memory from seed to seed by more than the benchmark's
/// bounds, so every run trains on the same corpus and `seed` drives model
/// initialisation, batch order and the held-out split. When
/// `checkpoint_prefix` is non-empty the trained model is saved there.
PipelineRun run_pipeline(std::uint64_t seed, const TrainSize& size,
                         const std::string& workdir,
                         const std::string& checkpoint_prefix = "");
inline constexpr std::uint64_t kCorpusSeed = 2025;

/// Balanced-accuracy floor of the held-out Task-2 check.
inline constexpr double kTask2Floor = 0.6;

/// Train-side per-layer metrics: the pipeline's own timings and counts plus
/// direct timings of rtlgen, the physical flow and lint on designs from the
/// same generator.
Metrics train_layer_metrics(const PipelineRun& run, std::uint64_t seed,
                            int designs);

}  // namespace benchkit
