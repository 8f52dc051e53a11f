// Tests for the static memory planner (nn/tape.hpp, nn/liveness.hpp,
// nn/memplan.hpp, analysis/plan_verify.hpp) and the allocation-hardening
// satellites: Mat dimension overflow, ensure_grad zeroing on realloc,
// diamond/repeated-parent gradient parity with and without the planner,
// verifier rejection of corrupted plans, replay-divergence safety, and
// bit-identical training with planning on vs off at several pool widths.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/check.hpp"
#include "core/nettag.hpp"
#include "model/text_encoder.hpp"
#include "netlist/netlist.hpp"
#include "nn/liveness.hpp"
#include "nn/tape.hpp"
#include "nn/tensor.hpp"
#include "tasks/finetune.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace nettag {
namespace {

/// Resets planner state on entry and exit, and restores the runtime
/// enablement override so tests cannot leak plans or modes into each other.
struct PlanSandbox {
  PlanSandbox() {
    plan::set_test_plan_corruption(false);
    plan::reset_for_tests();
  }
  ~PlanSandbox() {
    plan::set_test_plan_corruption(false);
    plan::set_planning_enabled(true);
    plan::reset_for_tests();
  }
};

std::vector<float> heap_copy(const Mat& m) {
  return std::vector<float>(m.v.begin(), m.v.end());
}

// --- satellite: Mat dimension hardening --------------------------------------

TEST(MatHardening, NegativeDimensionsThrow) {
  EXPECT_THROW(Mat(-1, 4), CheckError);
  EXPECT_THROW(Mat(4, -1), CheckError);
  EXPECT_THROW(Mat(-3, -3), CheckError);
}

TEST(MatHardening, RowsTimesColsOverflowThrows) {
  // INT_MAX * INT_MAX ~ 4.6e18 elements: far beyond the element cap, and
  // without the guarded multiply it wraps std::size_t arithmetic paths.
  EXPECT_THROW(Mat(INT_MAX, INT_MAX), CheckError);
  // ~1.2e12 elements: each factor is individually fine, the product is not.
  EXPECT_THROW(Mat(1'100'000, 1'100'000), CheckError);
}

TEST(MatHardening, ZeroAndModestShapesAllowed) {
  EXPECT_NO_THROW(Mat(0, INT_MAX));
  EXPECT_NO_THROW(Mat(INT_MAX, 0));
  Mat m(3, 5);
  EXPECT_EQ(m.size(), 15u);
}

// --- satellite: ensure_grad must zero on shape-mismatch realloc --------------

TEST(EnsureGrad, ZeroesOnShapeMismatchRealloc) {
  Tensor t = make_tensor(Mat(2, 3), true);
  ASSERT_EQ(t->grad.rows, 2);
  for (auto& g : t->grad.v) g = 42.f;
  t->value = Mat(3, 2);  // reshaped mid-graph
  t->ensure_grad();
  ASSERT_EQ(t->grad.rows, 3);
  ASSERT_EQ(t->grad.cols, 2);
  for (const float g : t->grad.v) EXPECT_EQ(g, 0.f);
}

TEST(EnsureGrad, NoStaleGradientAcrossReshapedSteps) {
  // Step 1: accumulate a nonzero gradient into x at shape 1x2.
  Tensor x = make_tensor(Mat(1, 2), true);
  x->value.at(0, 0) = 1.f;
  x->value.at(0, 1) = 2.f;
  auto scalar_loss = [](const Tensor& t) {
    return sum_rows(transpose(sum_rows(t)));  // NxD -> 1x1
  };
  backward(scalar_loss(mul(x, x)));
  ASSERT_NE(x->grad.at(0, 0), 0.f);

  // Step 2: reshape the same leaf and rerun. The fresh gradient must equal
  // the one computed on a brand-new node — no bytes from step 1 may leak.
  x->value = Mat(2, 2);
  for (int i = 0; i < 4; ++i) x->value.v[static_cast<std::size_t>(i)] = 1.f + i;
  x->ensure_grad();
  backward(scalar_loss(mul(x, x)));

  Tensor fresh = make_tensor(x->value, true);
  backward(scalar_loss(mul(fresh, fresh)));
  ASSERT_EQ(heap_copy(x->grad), heap_copy(fresh->grad));
}

// --- gradient parity: diamond and repeated-parent graphs ---------------------

/// One diamond step: two paths from x reconverge in the loss. Returns the
/// gradient of x and the loss value.
std::pair<std::vector<float>, float> diamond_step() {
  Tensor x = make_tensor(Mat(2, 4), true);
  for (std::size_t i = 0; i < x->value.v.size(); ++i) {
    x->value.v[i] = 0.25f * static_cast<float>(i) - 0.8f;
  }
  Tensor a = tanh_op(x);
  Tensor left = relu(a);
  Tensor right = sigmoid(a);
  Tensor loss = sum_rows(transpose(mean_rows(mul(add(left, right), a))));
  backward(loss);
  return {heap_copy(x->grad), loss->value.v[0]};
}

TEST(PlannerParity, DiamondGraphGradsBitIdentical) {
  PlanSandbox sandbox;
  plan::set_planning_enabled(false);
  const auto baseline = diamond_step();

  plan::set_planning_enabled(true);
  std::pair<std::vector<float>, float> recorded, replayed;
  {
    plan::PlanScope scope("test|diamond");
    recorded = diamond_step();
  }
  {
    plan::PlanScope scope("test|diamond");
    replayed = diamond_step();
  }
  EXPECT_EQ(baseline.first, recorded.first);
  EXPECT_EQ(baseline.second, recorded.second);
  EXPECT_EQ(baseline.first, replayed.first);
  EXPECT_EQ(baseline.second, replayed.second);
  const plan::Stats st = plan::stats_snapshot();
  EXPECT_EQ(st.plans_installed, 1u);
  EXPECT_EQ(st.replays, 1u);
  EXPECT_EQ(st.divergences, 0u);
}

/// Feeds the same tensor twice into concat_rows: the backward closure must
/// accumulate both row-block gradients into the single shared buffer.
std::pair<std::vector<float>, float> repeated_parent_step() {
  Tensor x = make_tensor(Mat(2, 3), true);
  for (std::size_t i = 0; i < x->value.v.size(); ++i) {
    x->value.v[i] = 0.5f * static_cast<float>(i) - 1.f;
  }
  Tensor both = concat_rows({x, x});
  Tensor w = make_tensor(Mat(3, 1), true);
  w->value.at(0, 0) = 0.3f;
  w->value.at(1, 0) = -0.7f;
  w->value.at(2, 0) = 1.1f;
  Tensor loss = sum_rows(matmul(both, w));  // 4x1 -> 1x1
  backward(loss);
  return {heap_copy(x->grad), loss->value.v[0]};
}

TEST(PlannerParity, RepeatedParentAccumulatesIdentically) {
  PlanSandbox sandbox;
  plan::set_planning_enabled(false);
  const auto baseline = repeated_parent_step();

  plan::set_planning_enabled(true);
  for (int pass = 0; pass < 2; ++pass) {  // record, then replay
    plan::PlanScope scope("test|repeated-parent");
    const auto got = repeated_parent_step();
    EXPECT_EQ(baseline.first, got.first) << "pass " << pass;
    EXPECT_EQ(baseline.second, got.second) << "pass " << pass;
  }
  EXPECT_EQ(plan::stats_snapshot().divergences, 0u);
}

// --- verifier: corrupted plans must be rejected ------------------------------

TEST(PlanVerifier, RejectsCorruptPlanAndFallsBackToHeap) {
  PlanSandbox sandbox;
  plan::set_planning_enabled(false);
  const auto baseline = diamond_step();

  plan::set_planning_enabled(true);
  plan::set_test_plan_corruption(true);
  {
    plan::PlanScope scope("test|corrupt");
    const auto got = diamond_step();  // recording pass: plain heap semantics
    EXPECT_EQ(baseline.first, got.first);
  }
  {
    // First re-encounter builds the (corrupted) plan; the verifier must
    // refuse it and this pass must fall straight back to the heap.
    plan::PlanScope scope("test|corrupt");
    const auto got = diamond_step();
    EXPECT_EQ(baseline.first, got.first);
  }
  plan::set_test_plan_corruption(false);

  // The deliberately-overlapping plan must have been refused.
  const plan::Stats st = plan::stats_snapshot();
  EXPECT_EQ(st.verifier_rejects, 1u);
  EXPECT_EQ(st.plans_installed, 0u);
  bool found = false;
  for (const plan::TapeReport& r : plan::tape_reports()) {
    if (r.signature != "test|corrupt") continue;
    found = true;
    EXPECT_EQ(r.state, "disabled");
    EXPECT_FALSE(r.verifier_ok);
    EXPECT_NE(r.verifier_verdict.find("overlap"), std::string::npos)
        << r.verifier_verdict;
  }
  EXPECT_TRUE(found);

  // Subsequent steps under the rejected signature run on the heap and stay
  // bit-identical.
  const unsigned long long served_before = plan::stats_snapshot().mallocs_avoided;
  {
    plan::PlanScope scope("test|corrupt");
    const auto got = diamond_step();
    EXPECT_EQ(baseline.first, got.first);
    EXPECT_EQ(baseline.second, got.second);
  }
  EXPECT_EQ(plan::stats_snapshot().mallocs_avoided, served_before);
}

TEST(PlanVerifier, AcceptsInstalledPlans) {
  PlanSandbox sandbox;
  plan::set_planning_enabled(true);
  {
    plan::PlanScope scope("test|verify-ok");
    diamond_step();  // records
  }
  for (const plan::TapeReport& r : plan::tape_reports()) {
    // Planning is lazy: after the recording pass only the tape exists.
    ASSERT_EQ(r.state, "recorded");
    ASSERT_TRUE(r.plan == nullptr);
  }
  {
    plan::PlanScope scope("test|verify-ok");
    diamond_step();  // plans + verifies at scope entry, then replays
  }
  for (const plan::TapeReport& r : plan::tape_reports()) {
    ASSERT_EQ(r.state, "ready");
    ASSERT_TRUE(r.verifier_ok);
    ASSERT_TRUE(r.plan != nullptr);
    ASSERT_GT(r.plan->buffers_planned, 0u);
  }
}

// --- replay divergence: wrong graph under a known signature ------------------

TEST(PlannerSafety, ReplayDivergenceMaterializesAndDisables) {
  PlanSandbox sandbox;
  plan::set_planning_enabled(true);
  {
    plan::PlanScope scope("test|diverge");
    diamond_step();  // records the diamond tape
  }
  plan::set_planning_enabled(false);
  const auto baseline = repeated_parent_step();
  plan::set_planning_enabled(true);
  {
    plan::PlanScope scope("test|diverge");
    const auto got = repeated_parent_step();  // different graph: must diverge
    EXPECT_EQ(baseline.first, got.first);
    EXPECT_EQ(baseline.second, got.second);
  }
  const plan::Stats st = plan::stats_snapshot();
  EXPECT_GE(st.divergences, 1u);
  for (const plan::TapeReport& r : plan::tape_reports()) {
    if (r.signature == "test|diverge") EXPECT_EQ(r.state, "disabled");
  }
  // Disabled signature: later steps run on the heap, still correct.
  {
    plan::PlanScope scope("test|diverge");
    const auto got = repeated_parent_step();
    EXPECT_EQ(baseline.first, got.first);
  }
}

TEST(PlannerSafety, ShorterReplayDivergesInsteadOfInstallingGarbage) {
  PlanSandbox sandbox;
  plan::set_planning_enabled(true);
  {
    plan::PlanScope scope("test|short");
    diamond_step();
  }
  plan::set_planning_enabled(false);
  Tensor probe = make_tensor(Mat(2, 4), true);
  for (std::size_t i = 0; i < probe->value.v.size(); ++i) {
    probe->value.v[i] = 0.25f * static_cast<float>(i) - 0.8f;
  }
  backward(sum_rows(transpose(mean_rows(tanh_op(probe)))));
  const std::vector<float> baseline = heap_copy(probe->grad);
  plan::set_planning_enabled(true);
  {
    // Same leading op (tanh on a 2x4 leaf) but the step ends early: the
    // scope must notice the under-consumed tape and keep results exact.
    plan::PlanScope scope("test|short");
    Tensor x = make_tensor(Mat(2, 4), true);
    for (std::size_t i = 0; i < x->value.v.size(); ++i) {
      x->value.v[i] = 0.25f * static_cast<float>(i) - 0.8f;
    }
    backward(sum_rows(transpose(mean_rows(tanh_op(x)))));
    EXPECT_EQ(baseline, heap_copy(x->grad));
  }
  EXPECT_GE(plan::stats_snapshot().divergences, 1u);
}

// --- end-to-end: training loops bit-identical with planning on/off -----------

/// Deterministic toy classification problem.
void toy_problem(Mat* x, std::vector<int>* y) {
  Rng data_rng(1234);
  *x = Mat(48, 6);
  y->clear();
  for (int i = 0; i < x->rows; ++i) {
    float s = 0.f;
    for (int j = 0; j < x->cols; ++j) {
      x->at(i, j) = static_cast<float>(data_rng.uniform(-1.0, 1.0));
      s += x->at(i, j);
    }
    y->push_back(s > 0.f ? 1 : 0);
  }
}

Mat fit_and_score(bool plan_on) {
  plan::reset_for_tests();
  plan::set_planning_enabled(plan_on);
  Mat x;
  std::vector<int> y;
  toy_problem(&x, &y);
  FinetuneOptions opt;
  opt.steps = 25;
  opt.batch = 8;
  opt.hidden = 16;
  Rng rng(99);
  ClassifierHead head(x.cols, 2, opt, rng);
  EXPECT_TRUE(head.fit(x, y, rng));
  return head.scores(x);
}

TEST(PlannerBitIdentity, ClassifierTrainingWidth1) {
  PlanSandbox sandbox;
  ThreadPool::instance().set_width(1);
  const Mat off = fit_and_score(false);
  const Mat on = fit_and_score(true);
  ASSERT_EQ(heap_copy(off), heap_copy(on));
  // The loop must actually have replayed from the arena, not just matched.
  const plan::Stats st = plan::stats_snapshot();
  EXPECT_GE(st.plans_installed, 1u);
  EXPECT_GE(st.replays, 20u);
  EXPECT_EQ(st.divergences, 0u);
  EXPECT_GT(st.mallocs_avoided, 0u);
}

TEST(PlannerBitIdentity, ClassifierTrainingWidth3) {
  PlanSandbox sandbox;
  ThreadPool::instance().set_width(3);
  const Mat off = fit_and_score(false);
  const Mat on = fit_and_score(true);
  ThreadPool::instance().set_width(1);
  ASSERT_EQ(heap_copy(off), heap_copy(on));
}

TEST(PlannerBitIdentity, EmbedPathWithReplay) {
  PlanSandbox sandbox;
  ThreadPool::instance().set_width(1);
  Netlist nl("planner");
  const GateId a = nl.add_port("A");
  const GateId b = nl.add_port("B");
  const GateId u1 = nl.add_gate(CellType::kXor2, "U1", {a, b});
  const GateId u2 = nl.add_gate(CellType::kInv, "U2", {b});
  const GateId u3 = nl.add_gate(CellType::kNor2, "U3", {u1, u2});
  nl.mark_output(u3);

  NetTagConfig cfg;
  cfg.expr_llm = TextEncoderConfig::tiny();

  plan::set_planning_enabled(false);
  NetTag model_off(cfg, 7);
  const NetTag::ConeEmbedding off = model_off.embed(nl);

  plan::set_planning_enabled(true);
  NetTag model_on(cfg, 7);
  const NetTag::ConeEmbedding first = model_on.embed(nl);   // records
  const NetTag::ConeEmbedding second = model_on.embed(nl);  // replays
  EXPECT_EQ(heap_copy(off.cls), heap_copy(first.cls));
  EXPECT_EQ(heap_copy(off.cls), heap_copy(second.cls));
  // The full per-node embedding matrix is caller-visible too (keep_alive
  // pin): a plan that reuses its bytes intra-forward corrupts exactly this.
  EXPECT_EQ(heap_copy(off.nodes), heap_copy(first.nodes));
  EXPECT_EQ(heap_copy(off.nodes), heap_copy(second.nodes));
  const plan::Stats st = plan::stats_snapshot();
  EXPECT_GE(st.replays, 1u);
  EXPECT_EQ(st.divergences, 0u);
}

std::vector<std::uint32_t> bit_copy(const Mat& m) {
  std::vector<std::uint32_t> out(m.v.size());
  if (!out.empty()) std::memcpy(out.data(), m.v.data(), out.size() * 4);
  return out;
}

/// One text-encoder training step inside a plan scope: encode, then backward
/// from an MSE loss. Returns the bytes of the embedding followed by those of
/// every parameter gradient (zeroed again for the next step).
std::vector<std::vector<std::uint32_t>> text_encoder_step(
    const TextEncoder& enc, const std::string& text) {
  plan::PlanScope scope("test|text_encoder");
  const Tensor emb = enc.encode(text);
  plan::keep_alive(emb);
  backward(mse_loss(emb, Mat(1, emb->value.cols)));
  std::vector<std::vector<std::uint32_t>> out{bit_copy(emb->value)};
  for (const Tensor& p : enc.params()) {
    out.push_back(bit_copy(p->grad));
    p->zero_grad();
  }
  return out;
}

TEST(PlannerBitIdentity, TextEncoderEncodeWithReplay) {
  PlanSandbox sandbox;
  ThreadPool::instance().set_width(1);
  const Vocab vocab;
  // The base tier runs four attention heads per layer.
  const TextEncoderConfig cfg = TextEncoderConfig::base();
  const std::string text = "gate U1 type NAND2 expr U1 = ~(a & (b ^ c))";

  plan::set_planning_enabled(false);
  Rng rng_off(11);
  const TextEncoder enc_off(vocab, cfg, rng_off);
  const auto off = text_encoder_step(enc_off, text);

  plan::set_planning_enabled(true);
  Rng rng_on(11);
  const TextEncoder enc_on(vocab, cfg, rng_on);
  const auto first = text_encoder_step(enc_on, text);   // records
  const auto second = text_encoder_step(enc_on, text);  // replays
  EXPECT_EQ(off, first);
  EXPECT_EQ(off, second);
  const plan::Stats st = plan::stats_snapshot();
  EXPECT_GE(st.replays, 1u);
  EXPECT_EQ(st.divergences, 0u);
  EXPECT_EQ(st.verifier_rejects, 0u);
}

// --- liveness unit checks ----------------------------------------------------

TEST(Liveness, BackwardRootValuePinnedToHorizon) {
  plan::Tape tape;
  plan::TapeEntry e;
  e.op = "mul";
  e.rows = 1;
  e.cols = 4;
  e.requires_grad = true;
  e.value_planned = true;
  tape.entries.push_back(e);
  e.op = "sum_rows";
  e.cols = 1;
  e.parents = {0};
  tape.entries.push_back(e);
  tape.bwd_order = {1, 0};
  tape.bwd_roots = {1};
  const plan::LivenessResult live = plan::analyze_liveness(tape);
  // The root's value is read by the caller after backward (loss logging):
  // it must stay live through the whole step.
  EXPECT_EQ(live.value[1].last, live.horizon);
  // Entry 0's value is read forward by sum_rows at time 1 and by no closure
  // (sum_rows' backward reads no parent values; mul's reads its parents',
  // not its own output), so it dies right after its forward use.
  EXPECT_EQ(live.value[0].last, 1);
}

}  // namespace
}  // namespace nettag
