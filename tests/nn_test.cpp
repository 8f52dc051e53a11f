// Autograd correctness: finite-difference gradient checks for every op,
// plus end-to-end training sanity (XOR learning, InfoNCE convergence).
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "analysis/check.hpp"
#include "nn/gemm.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"

namespace nettag {
namespace {

/// Finite-difference gradient check: `build` must construct the loss graph
/// from scratch using `params` (leaf tensors with requires_grad).
void gradcheck(const std::function<Tensor()>& build,
               const std::vector<Tensor>& params, float tol = 2e-2f,
               float h = 1e-3f) {
  // Analytic gradients.
  for (const Tensor& p : params) {
    p->ensure_grad();
    p->zero_grad();
  }
  Tensor loss = build();
  backward(loss);
  for (const Tensor& p : params) {
    ASSERT_TRUE(p->requires_grad);
    for (std::size_t i = 0; i < p->value.v.size(); ++i) {
      const float orig = p->value.v[i];
      p->value.v[i] = orig + h;
      const float up = build()->value.v[0];
      p->value.v[i] = orig - h;
      const float down = build()->value.v[0];
      p->value.v[i] = orig;
      const float numeric = (up - down) / (2 * h);
      const float analytic = p->grad.v[i];
      const float denom = std::max({std::abs(numeric), std::abs(analytic), 1.f});
      EXPECT_NEAR(analytic / denom, numeric / denom, tol)
          << "param entry " << i << " analytic=" << analytic
          << " numeric=" << numeric;
    }
  }
}

Tensor rand_param(int r, int c, std::uint64_t seed) {
  Rng rng(seed);
  Mat m(r, c);
  for (float& x : m.v) x = static_cast<float>(rng.normal(0, 0.8));
  return make_tensor(std::move(m), true);
}

Mat rand_mat(int r, int c, std::uint64_t seed) {
  Rng rng(seed);
  Mat m(r, c);
  for (float& x : m.v) x = static_cast<float>(rng.normal(0, 0.8));
  return m;
}

// Reduce any matrix to a scalar for gradcheck via a fixed weighting.
Tensor to_scalar(const Tensor& t) {
  const int n = t->value.rows, d = t->value.cols;
  Mat w(d, 1);
  for (int i = 0; i < d; ++i) w.at(i, 0) = 0.3f + 0.1f * static_cast<float>(i);
  Tensor wt = make_tensor(std::move(w), false);
  Tensor col = matmul(t, wt);  // Nx1
  Mat u(1, n);
  for (int i = 0; i < n; ++i) u.at(0, i) = 0.5f + 0.05f * static_cast<float>(i);
  return matmul(make_tensor(std::move(u), false), col);  // 1x1
}

TEST(Autograd, MatmulGrad) {
  Tensor a = rand_param(3, 4, 1);
  Tensor b = rand_param(4, 2, 2);
  gradcheck([&] { return to_scalar(matmul(a, b)); }, {a, b});
}

TEST(Autograd, AddGrad) {
  Tensor a = rand_param(3, 3, 3);
  Tensor b = rand_param(3, 3, 4);
  gradcheck([&] { return to_scalar(add(a, b)); }, {a, b});
}

TEST(Autograd, AddRowvecGrad) {
  Tensor a = rand_param(4, 3, 5);
  Tensor b = rand_param(1, 3, 6);
  gradcheck([&] { return to_scalar(add_rowvec(a, b)); }, {a, b});
}

TEST(Autograd, ActivationGrads) {
  Tensor a = rand_param(3, 4, 7);
  gradcheck([&] { return to_scalar(relu(a)); }, {a});
  gradcheck([&] { return to_scalar(gelu(a)); }, {a});
  gradcheck([&] { return to_scalar(sigmoid(a)); }, {a});
}

TEST(Autograd, ShapeOpGrads) {
  Tensor a = rand_param(4, 3, 8);
  Tensor b = rand_param(4, 2, 9);
  gradcheck([&] { return to_scalar(transpose(a)); }, {a});
  gradcheck([&] { return to_scalar(concat_cols(a, b)); }, {a, b});
  gradcheck([&] { return to_scalar(slice_rows(a, 1, 2)); }, {a});
  gradcheck([&] { return to_scalar(mean_rows(a)); }, {a});
  gradcheck([&] { return to_scalar(sum_rows(a)); }, {a});
}

TEST(Autograd, SoftmaxGrad) {
  Tensor a = rand_param(3, 5, 10);
  gradcheck([&] { return to_scalar(softmax_rows(a)); }, {a});
}

// --- attention_heads: one node for every head -------------------------------

/// The per-head chain MultiHeadAttention built before attention_heads, from
/// public ops: column slices via transpose/slice_rows/transpose, scaled
/// scores, row softmax, and the heads concatenated back in order.
Tensor per_head_chain(const Tensor& q, const Tensor& k, const Tensor& v,
                      int num_heads) {
  const int dh = q->value.cols / num_heads;
  Tensor out;
  for (int h = 0; h < num_heads; ++h) {
    auto head = [&](const Tensor& t) {
      return transpose(slice_rows(transpose(t), h * dh, dh));
    };
    const Tensor qh = head(q);
    const Tensor kh = head(k);
    const Tensor vh = head(v);
    Tensor scores = scale(matmul(qh, transpose(kh)),
                          1.f / std::sqrt(static_cast<float>(dh)));
    Tensor oh = matmul(softmax_rows(scores), vh);
    out = h == 0 ? oh : concat_cols(out, oh);
  }
  return out;
}

std::vector<std::uint32_t> bits(const Mat& m) {
  std::vector<std::uint32_t> out(m.v.size());
  if (!out.empty()) std::memcpy(out.data(), m.v.data(), out.size() * 4);
  return out;
}

/// Output and q/k/v gradient bytes of one attention forward plus a backward
/// seeded with a fixed random output gradient.
struct AttentionBytes {
  std::vector<std::uint32_t> out, dq, dk, dv;
};

AttentionBytes attention_bytes(bool fused, int heads, int rows, int dh) {
  const int d = heads * dh;
  const auto seed = static_cast<std::uint64_t>(1000 * heads + 10 * rows + dh);
  Tensor q = rand_param(rows, d, seed);
  Tensor k = rand_param(rows, d, seed + 1);
  Tensor v = rand_param(rows, d, seed + 2);
  Tensor out = fused ? attention_heads(q, k, v, heads)
                     : per_head_chain(q, k, v, heads);
  const Mat g = rand_mat(rows, d, seed + 3);
  std::copy(g.v.begin(), g.v.end(), out->grad.v.begin());
  backward_seeded(out);
  return {bits(out->value), bits(q->grad), bits(k->grad), bits(v->grad)};
}

TEST(Autograd, AttentionHeadsMatchesPerHeadChain) {
  const SimdBackend prev = simd_backend();
  for (SimdBackend backend : {SimdBackend::kScalar, SimdBackend::kAvx2}) {
    if (!set_simd_backend(backend)) continue;  // CPU without AVX2
    for (int heads : {1, 2, 4}) {
      for (int rows : {1, 2, 17, 33}) {
        for (int dh : {3, 8, 12}) {
          const AttentionBytes chain = attention_bytes(false, heads, rows, dh);
          const AttentionBytes fused = attention_bytes(true, heads, rows, dh);
          const std::string at = std::string(simd_backend_name(backend)) +
                                 " heads=" + std::to_string(heads) +
                                 " rows=" + std::to_string(rows) +
                                 " dh=" + std::to_string(dh);
          EXPECT_EQ(fused.out, chain.out) << "output, " << at;
          EXPECT_EQ(fused.dq, chain.dq) << "dq, " << at;
          EXPECT_EQ(fused.dk, chain.dk) << "dk, " << at;
          EXPECT_EQ(fused.dv, chain.dv) << "dv, " << at;
        }
      }
    }
  }
  set_simd_backend(prev);
}

TEST(Autograd, AttentionHeadsGrad) {
  Tensor q = rand_param(4, 6, 40);
  Tensor k = rand_param(4, 6, 41);
  Tensor v = rand_param(4, 6, 42);
  gradcheck([&] { return to_scalar(attention_heads(q, k, v, 2)); }, {q, k, v});
  gradcheck([&] { return to_scalar(attention_heads(q, k, v, 3)); }, {q, k, v});
  // Heads must divide the width; q, k and v must share one shape.
  EXPECT_THROW(attention_heads(q, k, v, 4), CheckError);
  EXPECT_THROW(attention_heads(q, k, v, 0), CheckError);
  EXPECT_THROW(attention_heads(q, rand_param(5, 6, 43), v, 2), CheckError);
  EXPECT_THROW(attention_heads(q, k, rand_param(4, 8, 44), 2), CheckError);
}

TEST(Autograd, LayerNormGrad) {
  Tensor a = rand_param(3, 6, 11);
  Tensor g = rand_param(1, 6, 12);
  Tensor b = rand_param(1, 6, 13);
  gradcheck([&] { return to_scalar(layernorm_rows(a, g, b)); }, {a, g, b},
            4e-2f);
}

TEST(Autograd, EmbeddingGrad) {
  Tensor table = rand_param(7, 4, 14);
  const std::vector<int> ids = {2, 5, 2, 0};
  gradcheck([&] { return to_scalar(embedding(table, ids)); }, {table});
}

TEST(Autograd, NormalizeGrad) {
  Tensor a = rand_param(3, 4, 15);
  gradcheck([&] { return to_scalar(normalize_rows(a)); }, {a});
}

TEST(Autograd, CrossEntropyGrad) {
  Tensor logits = rand_param(4, 3, 16);
  const std::vector<int> targets = {0, 2, 1, 2};
  gradcheck([&] { return cross_entropy(logits, targets); }, {logits});
}

TEST(Autograd, CrossEntropyRejectsTargetOutsideClasses) {
  Tensor logits = rand_param(2, 3, 16);
  EXPECT_THROW(cross_entropy(logits, {0, 3}), CheckError);
  EXPECT_THROW(cross_entropy(logits, {-1, 0}), CheckError);
}

TEST(Autograd, MseGrad) {
  Tensor pred = rand_param(3, 2, 17);
  const Mat target = rand_mat(3, 2, 18);
  gradcheck([&] { return mse_loss(pred, target); }, {pred});
}

TEST(Autograd, InfoNceGrad) {
  Tensor a = rand_param(4, 6, 19);
  Tensor p = rand_param(4, 6, 20);
  gradcheck([&] { return info_nce(a, p, 0.2f); }, {a, p}, 3e-2f);
}

TEST(Autograd, CompositeGraphGrad) {
  // A small transformer-ish composite to exercise graph reuse.
  Tensor x = rand_param(4, 6, 21);
  Tensor w = rand_param(6, 6, 22);
  gradcheck(
      [&] {
        Tensor h = relu(matmul(x, w));
        Tensor s = softmax_rows(matmul(h, transpose(h)));
        return to_scalar(matmul(s, h));
      },
      {x, w}, 3e-2f);
}

TEST(Autograd, SharedNodeGradAccumulates) {
  // f = sum(a·a + a) — a appears three times; grads must accumulate once
  // each.
  Tensor a = rand_param(2, 2, 23);
  gradcheck([&] { return to_scalar(add(matmul(a, a), a)); }, {a});
}

TEST(Layers, ShapesAndParamCounts) {
  Rng rng(3);
  Linear lin(8, 4, rng);
  EXPECT_EQ(lin.num_params(), 8u * 4 + 4);
  Tensor x = rand_param(5, 8, 25);
  Tensor y = lin.forward(x);
  EXPECT_EQ(y->value.rows, 5);
  EXPECT_EQ(y->value.cols, 4);

  TransformerBlock blk(8, 2, 16, rng);
  Tensor z = blk.forward(rand_param(6, 8, 26));
  EXPECT_EQ(z->value.rows, 6);
  EXPECT_EQ(z->value.cols, 8);

  Mlp mlp(8, 16, 3, rng);
  Tensor p = mlp.forward(rand_param(2, 8, 27));
  EXPECT_EQ(p->value.cols, 3);
}

TEST(Layers, AttentionRejectsIndivisibleHeads) {
  Rng rng(3);
  EXPECT_THROW(MultiHeadAttention(63, 2, rng), CheckError);
  EXPECT_THROW(MultiHeadAttention(8, 0, rng), CheckError);
  EXPECT_NO_THROW(MultiHeadAttention(64, 2, rng));
}

TEST(Layers, TransformerBlockGradFlows) {
  Rng rng(4);
  TransformerBlock blk(8, 2, 12, rng);
  Tensor x = rand_param(5, 8, 28);
  Tensor loss = to_scalar(blk.forward(x));
  backward(loss);
  // Every block parameter must receive some gradient signal.
  int nonzero_params = 0;
  for (const Tensor& p : blk.params()) {
    double s = 0;
    for (float g : p->grad.v) s += std::abs(g);
    if (s > 0) ++nonzero_params;
  }
  EXPECT_GT(nonzero_params, static_cast<int>(blk.params().size()) - 3);
}

TEST(Training, MlpLearnsXor) {
  Rng rng(5);
  Mlp mlp(2, 16, 2, rng);
  Adam opt(mlp.params(), 5e-3f);
  Mat x(4, 2);
  const int xs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<int> ys = {0, 1, 1, 0};
  for (int i = 0; i < 4; ++i) {
    x.at(i, 0) = static_cast<float>(xs[i][0]);
    x.at(i, 1) = static_cast<float>(xs[i][1]);
  }
  Tensor input = make_tensor(x, false);
  float final_loss = 1e9f;
  for (int step = 0; step < 400; ++step) {
    Tensor loss = cross_entropy(mlp.forward(input), ys);
    backward(loss);
    opt.step();
    final_loss = loss->value.v[0];
  }
  EXPECT_LT(final_loss, 0.1f);
  // Predictions correct.
  Tensor logits = mlp.forward(input);
  for (int i = 0; i < 4; ++i) {
    const int pred = logits->value.at(i, 0) > logits->value.at(i, 1) ? 0 : 1;
    EXPECT_EQ(pred, ys[static_cast<std::size_t>(i)]) << "sample " << i;
  }
}

TEST(Training, InfoNceAlignsPairs) {
  // Two trainable embedding sets; InfoNCE must pull matched rows together.
  Rng rng(6);
  Tensor a = make_param(6, 8, rng, 1.0f);
  Tensor b = make_param(6, 8, rng, 1.0f);
  Adam opt({a, b}, 1e-2f);
  float first = 0, last = 0;
  for (int step = 0; step < 150; ++step) {
    Tensor loss = info_nce(a, b, 0.2f);
    if (step == 0) first = loss->value.v[0];
    backward(loss);
    opt.step();
    last = loss->value.v[0];
  }
  EXPECT_LT(last, first * 0.5f);
  // Matched rows are now the most similar.
  Tensor an = normalize_rows(a);
  Tensor bn = normalize_rows(b);
  Tensor sim = matmul(an, transpose(bn));
  for (int i = 0; i < 6; ++i) {
    int best = 0;
    for (int j = 1; j < 6; ++j) {
      if (sim->value.at(i, j) > sim->value.at(i, best)) best = j;
    }
    EXPECT_EQ(best, i);
  }
}

TEST(Adam, ConvergesOnQuadratic) {
  Rng rng(7);
  Tensor p = make_param(1, 4, rng, 2.0f);
  Adam opt({p}, 5e-2f);
  Mat target(1, 4);
  target.at(0, 0) = 1.f;
  target.at(0, 1) = -2.f;
  target.at(0, 2) = 0.5f;
  target.at(0, 3) = 3.f;
  for (int i = 0; i < 500; ++i) {
    Tensor loss = mse_loss(p, target);
    backward(loss);
    opt.step();
  }
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(p->value.at(0, j), target.at(0, j), 0.05f);
  }
}

// --- Mat dimension hardening -------------------------------------------------

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

// --- ensure_grad must zero on shape-mismatch realloc -------------------------

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
  backward(scalar_loss(matmul(x, transpose(x))));
  ASSERT_NE(x->grad.at(0, 0), 0.f);

  // Step 2: reshape the same leaf and rerun. The fresh gradient must equal
  // the one computed on a brand-new node — no bytes from step 1 may leak.
  x->value = Mat(2, 2);
  for (int i = 0; i < 4; ++i) x->value.v[static_cast<std::size_t>(i)] = 1.f + i;
  x->ensure_grad();
  backward(scalar_loss(matmul(x, transpose(x))));

  Tensor fresh = make_tensor(x->value, true);
  backward(scalar_loss(matmul(fresh, transpose(fresh))));
  ASSERT_EQ(x->grad.v, fresh->grad.v);
}

}  // namespace
}  // namespace nettag
