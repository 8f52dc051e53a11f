// Bit-identical training resume (docs/ARCHITECTURE.md §8): a run interrupted
// at an arbitrary step and resumed from its checkpoint must end in *exactly*
// the state of the uninterrupted run — same parameter bytes, same loss curve.
// These tests interrupt deterministically via TrainCheckpoint::halt_after_steps
// (which follows the same finish-the-step-then-checkpoint path as a real
// SIGINT/SIGTERM) at points inside each phase and at the phase boundary.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/pretrain.hpp"
#include "nn/train_state.hpp"

namespace nettag {
namespace {

NetTagConfig tiny_config() {
  NetTagConfig cfg;
  cfg.expr_llm = TextEncoderConfig::tiny();
  cfg.tag_d_model = 32;
  cfg.out_dim = 24;
  return cfg;
}

PretrainOptions small_options() {
  PretrainOptions po;
  po.expr_steps = 6;
  po.tag_steps = 5;
  po.aux_steps = 0;
  po.max_expressions = 120;
  po.max_cones = 12;
  po.objective_align = false;
  return po;
}

const Corpus& shared_corpus() {
  static const Corpus corpus = [] {
    Rng rng(0xc0ffee);
    CorpusOptions co;
    co.designs_per_family = 1;
    co.with_physical = false;
    return build_corpus(co, rng);
  }();
  return corpus;
}

std::vector<float> model_params(const NetTag& model) {
  std::vector<float> out = flatten_param_values(model.expr_llm().params());
  const std::vector<float> tag = flatten_param_values(model.tagformer().params());
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

void remove_checkpoint(const std::string& prefix) {
  std::remove((prefix + ".ckpt").c_str());
}

/// The trainer section of the checkpoint under `prefix`.
TrainState saved_state(const std::string& prefix) {
  NetTag model(tiny_config(), 1);
  return load_train_checkpoint(model, prefix);
}

struct RunResult {
  std::vector<float> params;
  PretrainReport report;
};

/// One complete or interrupted pre-training run from a fixed seed. With
/// halt_after >= 0 the run stops after that many loop steps and leaves a
/// checkpoint under `prefix`.
RunResult run_pretrain(const std::string& prefix, long halt_after,
                       int every = 0) {
  NetTag model(tiny_config(), 5);
  PretrainOptions po = small_options();
  po.checkpoint.prefix = prefix;
  po.checkpoint.every = every;
  po.checkpoint.halt_after_steps = halt_after;
  Rng rng(7);
  RunResult out;
  out.report = pretrain(model, shared_corpus(), po, rng);
  out.params = model_params(model);
  return out;
}

/// Resumes a run interrupted under `prefix`. The model seed deliberately
/// differs from run_pretrain's — every trained value must come from the
/// checkpoint, not from construction. halt_after >= 0 interrupts the resumed
/// run itself (counted over steps executed in this call).
RunResult resume_run(const std::string& prefix, long halt_after = -1) {
  NetTag model(tiny_config(), 99);
  PretrainOptions po = small_options();
  po.checkpoint.prefix = prefix;
  po.checkpoint.halt_after_steps = halt_after;
  Rng rng(7);
  RunResult out;
  out.report = resume_pretrain(model, shared_corpus(), po, rng);
  out.params = model_params(model);
  return out;
}

void expect_identical(const RunResult& resumed, const RunResult& baseline) {
  ASSERT_EQ(resumed.params.size(), baseline.params.size());
  for (std::size_t i = 0; i < resumed.params.size(); ++i) {
    ASSERT_EQ(resumed.params[i], baseline.params[i]) << "param lane " << i;
  }
  EXPECT_EQ(resumed.report.expr_losses, baseline.report.expr_losses);
  EXPECT_EQ(resumed.report.tag_losses, baseline.report.tag_losses);
  EXPECT_EQ(resumed.report.expr_loss_first, baseline.report.expr_loss_first);
  EXPECT_EQ(resumed.report.expr_loss_last, baseline.report.expr_loss_last);
  EXPECT_EQ(resumed.report.tag_loss_first, baseline.report.tag_loss_first);
  EXPECT_EQ(resumed.report.tag_loss_last, baseline.report.tag_loss_last);
  EXPECT_FALSE(resumed.report.interrupted);
}

TEST(PretrainResume, MidExprPhaseBitIdentical) {
  const std::string prefix = "/tmp/nettag_resume_expr";
  const RunResult baseline = run_pretrain(/*prefix=*/"", /*halt_after=*/-1);
  const RunResult halted = run_pretrain(prefix, /*halt_after=*/3);
  EXPECT_TRUE(halted.report.interrupted);
  EXPECT_EQ(halted.report.expr_losses.size(), 3u);
  const TrainState st = saved_state(prefix);
  EXPECT_EQ(st.phase, "expr");
  EXPECT_EQ(st.next_step, 3u);
  expect_identical(resume_run(prefix), baseline);
  remove_checkpoint(prefix);
}

TEST(PretrainResume, ChainedResumesAcrossPhaseBoundaryBitIdentical) {
  const std::string prefix = "/tmp/nettag_resume_boundary";
  const RunResult baseline = run_pretrain("", -1);
  // Halt exactly at the end of step 1: the record is still an "expr"
  // checkpoint (the step-1/step-2 handoff record is only written once the
  // phase completes without a stop).
  const RunResult halted = run_pretrain(prefix, /*halt_after=*/6);
  EXPECT_TRUE(halted.report.interrupted);
  const TrainState st = saved_state(prefix);
  EXPECT_EQ(st.phase, "expr");
  EXPECT_EQ(st.next_step, 6u);
  // Resume across the boundary, then interrupt again two tag steps in — a
  // second-generation checkpoint of the resumed process.
  const RunResult mid = resume_run(prefix, /*halt_after=*/2);
  EXPECT_TRUE(mid.report.interrupted);
  const TrainState st2 = saved_state(prefix);
  EXPECT_EQ(st2.phase, "tag");
  EXPECT_EQ(st2.next_step, 2u);
  // The final resume of the twice-interrupted run matches the single
  // uninterrupted one exactly.
  expect_identical(resume_run(prefix), baseline);
  remove_checkpoint(prefix);
}

TEST(PretrainResume, MidTagPhaseWithPeriodicCheckpointsBitIdentical) {
  const std::string prefix = "/tmp/nettag_resume_tag";
  const RunResult baseline = run_pretrain("", -1);
  // Periodic checkpoints every 2 steps must not perturb the math either.
  const RunResult halted = run_pretrain(prefix, /*halt_after=*/8, /*every=*/2);
  EXPECT_TRUE(halted.report.interrupted);
  const TrainState st = saved_state(prefix);
  EXPECT_EQ(st.phase, "tag");
  EXPECT_EQ(st.next_step, 2u);
  EXPECT_EQ(st.prior_losses.size(), 6u);  // full expr curve travels along
  expect_identical(resume_run(prefix), baseline);
  remove_checkpoint(prefix);
}

TEST(PretrainResume, CompletedRunResumesAsNoOp) {
  const std::string prefix = "/tmp/nettag_resume_done";
  const RunResult finished = run_pretrain(prefix, /*halt_after=*/-1);
  EXPECT_FALSE(finished.report.interrupted);
  const TrainState st = saved_state(prefix);
  EXPECT_EQ(st.phase, "done");
  const RunResult again = resume_run(prefix);
  expect_identical(again, finished);
  remove_checkpoint(prefix);
}

TEST(PretrainResume, DatasetSizeMismatchRejected) {
  const std::string prefix = "/tmp/nettag_resume_mismatch";
  run_pretrain(prefix, /*halt_after=*/3);
  // A resume whose options prepare a different dataset cannot be
  // bit-identical; the recorded dataset size catches it up front.
  NetTag model(tiny_config(), 99);
  PretrainOptions po = small_options();
  po.max_expressions = 60;  // original prepared 120
  po.checkpoint.prefix = prefix;
  Rng r(7);
  EXPECT_THROW(resume_pretrain(model, shared_corpus(), po, r),
               std::runtime_error);
  remove_checkpoint(prefix);
}

TEST(PretrainResume, MissingCheckpointRejected) {
  NetTag model(tiny_config(), 99);
  PretrainOptions po = small_options();
  po.checkpoint.prefix = "/tmp/definitely_missing_nettag_resume";
  Rng rng(7);
  EXPECT_THROW(resume_pretrain(model, shared_corpus(), po, rng),
               std::runtime_error);
}

}  // namespace
}  // namespace nettag
