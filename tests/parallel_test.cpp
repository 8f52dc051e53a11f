// Thread-pool determinism contract tests.
//
// Three layers, matching the contract documented in util/parallel.hpp:
//   1. pool sanity — every index runs once, exceptions propagate to their
//      own caller, nested submission runs inline instead of deadlocking, and
//      threads outside the pool may open regions concurrently;
//   2. tensor kernels run serially on their caller, so forward AND backward
//      give the same bytes at any pool width;
//   3. a whole pre-training run is bit-identical at every width: the step
//      always runs the same fixed number of replica shards, whose gradients
//      are reduced in shard order, and the data it samples never depends on
//      the width.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pretrain.hpp"
#include "nn/tensor.hpp"
#include "util/parallel.hpp"
#include "width_guard.hpp"

namespace nettag {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  WidthGuard guard(8);
  std::vector<std::atomic<int>> hits(257);
  ThreadPool::instance().run_indexed(hits.size(),
                                     [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  WidthGuard guard(4);
  EXPECT_THROW(ThreadPool::instance().run_indexed(
                   64,
                   [](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  // The pool must still be usable after a failed region.
  std::atomic<int> count{0};
  ThreadPool::instance().run_indexed(32, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, NestedSubmitRunsInlineWithoutDeadlock) {
  WidthGuard guard(4);
  std::atomic<int> inner_total{0};
  ThreadPool::instance().run_indexed(8, [&](std::size_t) {
    // A nested region from inside a pool task must run inline.
    ThreadPool::instance().run_indexed(16, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ThreadPool, ConcurrentOutsideCallersEachRunTheirOwnRegion) {
  WidthGuard guard(4);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kCount = 301;
  constexpr int kRounds = 25;
  // hits[c * kCount + i]: how often caller c's region ran index i.
  std::vector<std::atomic<int>> hits(kCallers * kCount);
  std::vector<int> caught(kCallers, 0);
  std::vector<int> foreign(kCallers, 0);
  std::atomic<bool> go{false};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      while (!go.load()) std::this_thread::yield();
      for (int r = 0; r < kRounds; ++r) {
        try {
          ThreadPool::instance().run_indexed(kCount, [&, c](std::size_t i) {
            ++hits[c * kCount + i];
            // Odd callers' regions throw, naming their caller.
            if (c % 2 == 1 && i == 7 * c) {
              throw std::runtime_error(std::to_string(c));
            }
          });
        } catch (const std::runtime_error& e) {
          ++caught[c];
          if (e.what() != std::to_string(c)) ++foreign[c];
        }
      }
    });
  }
  go.store(true);
  for (std::thread& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[c * kCount + i].load(), kRounds)
          << "caller " << c << ", index " << i;
    }
    EXPECT_EQ(caught[c], c % 2 == 1 ? kRounds : 0) << "caller " << c;
    EXPECT_EQ(foreign[c], 0) << "caller " << c;
  }
}

/// One matmul + elementwise + softmax forward/backward round at a given
/// width; returns output value, and the gradients of both inputs.
struct KernelRun {
  Mat out;
  Mat da;
  Mat db;
};

KernelRun kernel_round(int width) {
  WidthGuard guard(width);
  Rng rng(42);
  // Large enough to exercise every GEMM tile and row-kernel tail path.
  Tensor a = make_param(300, 200, rng);
  Tensor b = make_param(200, 300, rng);
  Tensor y = softmax_rows(gelu(matmul(a, b)));
  // Reduce to a scalar so backward() can seed it.
  Tensor loss = mse_loss(y, Mat(300, 300));
  backward(loss);
  return {y->value, a->grad, b->grad};
}

TEST(ParallelKernels, MatmulForwardBackwardBitIdenticalAcrossWidths) {
  const KernelRun serial = kernel_round(1);
  for (int width : {2, 8}) {
    const KernelRun par = kernel_round(width);
    ASSERT_EQ(par.out.v.size(), serial.out.v.size());
    for (std::size_t i = 0; i < serial.out.v.size(); ++i) {
      ASSERT_EQ(par.out.v[i], serial.out.v[i]) << "forward, width " << width;
    }
    for (std::size_t i = 0; i < serial.da.v.size(); ++i) {
      ASSERT_EQ(par.da.v[i], serial.da.v[i]) << "dA, width " << width;
    }
    for (std::size_t i = 0; i < serial.db.v.size(); ++i) {
      ASSERT_EQ(par.db.v[i], serial.db.v[i]) << "dB, width " << width;
    }
  }
}

/// One attention_heads forward/backward round at a given width: output and
/// q/k/v gradients.
struct AttentionRun {
  Mat out, dq, dk, dv;
};

AttentionRun attention_round(int width) {
  WidthGuard guard(width);
  Rng rng(43);
  // 4 heads of width 32 over 160 rows.
  Tensor q = make_param(160, 128, rng);
  Tensor k = make_param(160, 128, rng);
  Tensor v = make_param(160, 128, rng);
  Tensor y = attention_heads(q, k, v, 4);
  backward(mse_loss(y, Mat(160, 128)));
  return {y->value, q->grad, k->grad, v->grad};
}

TEST(ParallelKernels, AttentionHeadsBitIdenticalAcrossWidths) {
  const AttentionRun serial = attention_round(1);
  const AttentionRun par = attention_round(4);
  auto same_bytes = [](const Mat& a, const Mat& b) {
    return a.v.size() == b.v.size() &&
           std::memcmp(a.v.data(), b.v.data(), a.v.size() * sizeof(float)) == 0;
  };
  EXPECT_TRUE(same_bytes(serial.out, par.out)) << "forward";
  EXPECT_TRUE(same_bytes(serial.dq, par.dq)) << "dq";
  EXPECT_TRUE(same_bytes(serial.dk, par.dk)) << "dk";
  EXPECT_TRUE(same_bytes(serial.dv, par.dv)) << "dv";
}

TEST(ParallelKernels, BackwardSeededMatchesBackward) {
  WidthGuard guard(2);
  Rng rng(7);
  Tensor a1 = make_param(8, 6, rng);
  Rng rng2(7);
  Tensor a2 = make_param(8, 6, rng2);
  // Same graph twice: once driven by backward(), once by seeding the root
  // gradient by hand and continuing with backward_seeded().
  Tensor y1 = mse_loss(sigmoid(a1), Mat(8, 6));
  backward(y1);
  Tensor y2 = mse_loss(sigmoid(a2), Mat(8, 6));
  y2->ensure_grad();
  y2->grad.v[0] = 1.f;
  backward_seeded(y2);
  for (std::size_t i = 0; i < a1->grad.v.size(); ++i) {
    ASSERT_EQ(a1->grad.v[i], a2->grad.v[i]);
  }
}

/// A short in-memory pretraining run with every objective on (alignment
/// included, so the auxiliary encoders train too): its report and the
/// fingerprint of the trained weights.
struct PretrainRound {
  PretrainReport report;
  std::uint32_t params = 0;
};

PretrainRound pretrain_round(int width) {
  WidthGuard guard(width);
  Rng rng(11);
  CorpusOptions co;
  co.designs_per_family = 1;
  Corpus corpus = build_corpus(co, rng);
  NetTag model(NetTagConfig{}, 5);
  PretrainOptions po;
  po.expr_steps = 4;
  po.tag_steps = 3;
  po.aux_steps = 2;
  po.max_expressions = 120;
  po.max_cones = 10;
  PretrainRound out;
  out.report = pretrain(model, corpus, po, rng);
  out.params = params_fingerprint(model);
  return out;
}

TEST(ParallelPretrain, StepDeterministicAcrossRunsAtFixedWidth) {
  const PretrainReport a = pretrain_round(3).report;
  const PretrainReport b = pretrain_round(3).report;
  EXPECT_EQ(a.expr_loss_first, b.expr_loss_first);
  EXPECT_EQ(a.expr_loss_last, b.expr_loss_last);
  EXPECT_EQ(a.tag_loss_first, b.tag_loss_first);
  EXPECT_EQ(a.tag_loss_last, b.tag_loss_last);
}

TEST(ParallelPretrain, FirstStepLossMatchesSerialAtAnyWidth) {
  // The first loss comes before any optimizer step: it depends only on the
  // sampled batch and the initial weights, which no width changes.
  const PretrainReport serial = pretrain_round(1).report;
  const PretrainReport par = pretrain_round(2).report;
  EXPECT_EQ(par.expr_loss_first, serial.expr_loss_first);
}

TEST(ParallelPretrain, WholeRunBitIdenticalAcrossWidths) {
  // Every width runs the same shards and reduces their gradients in the same
  // order, so every step's loss and the trained weights match width 1's.
  const PretrainRound serial = pretrain_round(1);
  ASSERT_EQ(serial.report.expr_losses.size(), 4u);
  ASSERT_EQ(serial.report.tag_losses.size(), 3u);
  for (int width : {2, 3, 4}) {
    const PretrainRound par = pretrain_round(width);
    EXPECT_EQ(par.report.expr_losses, serial.report.expr_losses)
        << "width " << width;
    EXPECT_EQ(par.report.tag_losses, serial.report.tag_losses)
        << "width " << width;
    EXPECT_EQ(par.params, serial.params) << "width " << width;
  }
}

/// First TAGFormer loss with no ExprLLM step: it depends only on the sampled
/// data (cone shuffle, augmented positives, masks), never on gradient order.
float first_tag_loss(int width) {
  WidthGuard guard(width);
  Rng rng(11);
  CorpusOptions co;
  co.designs_per_family = 1;
  co.with_physical = false;
  Corpus corpus = build_corpus(co, rng);
  NetTag model(NetTagConfig{}, 5);
  PretrainOptions po;
  po.expr_steps = 0;
  po.tag_steps = 1;
  po.aux_steps = 0;
  po.max_cones = 10;
  po.objective_align = false;
  return pretrain(model, corpus, po, rng).tag_loss_first;
}

TEST(ParallelPretrain, FirstTagLossMatchesSerialAtAnyWidth) {
  // Sampled data is independent of pool width: cone preparation forks the
  // same per-cone augmentation streams at every width.
  const float serial = first_tag_loss(1);
  EXPECT_EQ(first_tag_loss(2), serial);
  EXPECT_EQ(first_tag_loss(3), serial);
}

}  // namespace
}  // namespace nettag
