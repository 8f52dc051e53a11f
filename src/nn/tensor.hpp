// Minimal dense-matrix reverse-mode autograd: the training-framework
// substitute (the paper uses PyTorch on 12 GPUs; we train models small
// enough for one CPU core).
//
// A Tensor is a shared handle to a Node holding a row-major float matrix,
// its gradient, and a backward closure. Ops build the graph eagerly;
// backward() topologically sorts the reachable graph and accumulates
// gradients. All shapes are 2-D (rows x cols); vectors are 1xN or Nx1.
// The forward arithmetic of the ops the encoders use lives in
// nn/forward.hpp, shared with the value-only inference path.
//
// Invariants: every op checks its shape contract with NETTAG_CHECK
// (analysis/check.hpp) — active in release builds, throwing CheckError with
// the offending shapes. With deep checks on (NETTAG_CHECK=1 env var), every
// op output is additionally scanned for NaN/Inf after the forward and every
// gradient after the backward sweep, naming the producing op.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/check.hpp"
#include "util/rng.hpp"

namespace nettag {

/// Plain dense matrix (row-major).
struct Mat {
  /// Dimension cap so rows*cols can never wrap std::size_t (and is rejected
  /// long before a bogus multi-terabyte vector allocation is attempted).
  static constexpr std::size_t kMaxElems = std::size_t{1} << 40;

  int rows = 0;
  int cols = 0;
  std::vector<float> v;

  Mat() = default;
  Mat(int r, int c) : rows(r), cols(c) {
    NETTAG_CHECK(r >= 0 && c >= 0,
                 "Mat: negative dimensions " + std::to_string(r) + "x" +
                     std::to_string(c));
    NETTAG_CHECK(r == 0 || static_cast<std::size_t>(c) <=
                               kMaxElems / static_cast<std::size_t>(r),
                 "Mat: rows*cols overflows element cap at " +
                     std::to_string(r) + "x" + std::to_string(c));
    v.assign(static_cast<std::size_t>(r) * static_cast<std::size_t>(c), 0.f);
  }

  float& at(int r, int c) { return v[static_cast<std::size_t>(r) * cols + c]; }
  float at(int r, int c) const { return v[static_cast<std::size_t>(r) * cols + c]; }
  std::size_t size() const { return v.size(); }
};

class Node;
using Tensor = std::shared_ptr<Node>;

/// One autograd graph node.
class Node {
 public:
  Mat value;
  Mat grad;                       ///< same shape as value (lazily allocated)
  const char* op = "leaf";        ///< producing op name (diagnostics only)
  bool requires_grad = false;
  std::vector<Tensor> parents;
  std::function<void()> backward_fn;  ///< propagates this->grad to parents

  explicit Node(Mat v, bool rg = false) : value(std::move(v)), requires_grad(rg) {
    if (requires_grad) grad = Mat(value.rows, value.cols);
  }

  /// (Re)allocates the gradient to match the value shape. A reallocation
  /// explicitly zero-fills: a node whose value was reshaped mid-graph must
  /// never see stale gradient bytes from a previous step.
  void ensure_grad() {
    if (grad.rows != value.rows || grad.cols != value.cols) {
      grad = Mat(value.rows, value.cols);
      std::fill(grad.v.begin(), grad.v.end(), 0.f);
    }
  }

  void zero_grad() { std::fill(grad.v.begin(), grad.v.end(), 0.f); }
};

// --- construction ------------------------------------------------------------

/// Leaf tensor from a matrix. `requires_grad=true` marks a trainable
/// parameter or an input needing gradients.
Tensor make_tensor(Mat m, bool requires_grad = false);

/// Trainable parameter with scaled-normal init (stddev = scale/sqrt(cols)).
Tensor make_param(int rows, int cols, Rng& rng, float scale = 1.0f);

// --- ops (each returns a new graph node) --------------------------------------

Tensor matmul(const Tensor& a, const Tensor& b);
Tensor add(const Tensor& a, const Tensor& b);        ///< same shape
Tensor add_rowvec(const Tensor& a, const Tensor& b); ///< a: NxD, b: 1xD
Tensor scale(const Tensor& a, float s);
Tensor relu(const Tensor& a);
Tensor gelu(const Tensor& a);                        ///< tanh approximation
Tensor sigmoid(const Tensor& a);
Tensor transpose(const Tensor& a);
Tensor concat_cols(const Tensor& a, const Tensor& b);
/// Stacks same-width tensors vertically (sum of rows x D).
Tensor concat_rows(const std::vector<Tensor>& parts);
Tensor slice_rows(const Tensor& a, int start, int count);
Tensor mean_rows(const Tensor& a);                   ///< NxD -> 1xD
Tensor sum_rows(const Tensor& a);                    ///< NxD -> 1xD
Tensor softmax_rows(const Tensor& a);
/// Scaled dot-product self-attention over every head in one node. q, k, v
/// are N x D projections; head h owns columns [h*D/H, (h+1)*D/H). Per head:
/// softmax(q_h k_h^T / sqrt(D/H)) v_h, written to the same columns of the
/// N x D result. Bit-identical, forward and backward, to the per-head chain
/// of transpose/slice_rows/matmul/scale/softmax_rows/concat_cols ops.
Tensor attention_heads(const Tensor& q, const Tensor& k, const Tensor& v,
                       int num_heads);
Tensor layernorm_rows(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                      float eps = 1e-5f);
/// Gathers rows of `table` (VxD) by ids -> NxD; gradients flow into table.
Tensor embedding(const Tensor& table, const std::vector<int>& ids);
/// L2-normalizes each row (for cosine similarity).
Tensor normalize_rows(const Tensor& a, float eps = 1e-8f);

// --- losses (return 1x1 scalars) ----------------------------------------------

/// Mean softmax cross-entropy of logits (NxC) against integer targets.
Tensor cross_entropy(const Tensor& logits, const std::vector<int>& targets);
/// Mean squared error against a constant target matrix.
Tensor mse_loss(const Tensor& pred, const Mat& target);
/// The temperature of every contrastive objective: pre-training's #1, #2.2,
/// #3 and the auxiliary encoders', and the FGNN-style AIG baseline's.
inline constexpr float kInfoNceTemperature = 0.1f;

/// InfoNCE: rows of `anchors` vs rows of `positives` (both NxD); the i-th
/// positive is the matching row, all other rows in `positives` are negatives.
/// Cosine similarities scaled by 1/temperature.
Tensor info_nce(const Tensor& anchors, const Tensor& positives,
                float temperature = kInfoNceTemperature);

// --- engine -------------------------------------------------------------------

/// Runs reverse-mode autodiff from `loss` (must be 1x1): seeds d(loss)=1 and
/// accumulates gradients into every reachable requires_grad node.
void backward(const Tensor& loss);

/// Runs reverse-mode autodiff from `root` without seeding: root->grad must
/// already hold the upstream gradient (any shape). Used by the data-parallel
/// training step to continue a backward pass into a detached subgraph.
void backward_seeded(const Tensor& root);

/// Adam optimizer over an explicit parameter list.
class Adam {
 public:
  explicit Adam(std::vector<Tensor> params, float lr = 1e-3f, float beta1 = 0.9f,
                float beta2 = 0.999f, float eps = 1e-8f);

  /// Applies one update from the accumulated gradients, then zeroes them.
  void step();
  void zero_grad();
  float lr() const { return lr_; }

  // --- checkpoint access (nn/train_state.hpp) -----------------------------
  /// Bias-correction step count (number of step() calls applied).
  long step_count() const { return t_; }
  /// First/second moment estimates, one Mat per parameter in list order.
  const std::vector<Mat>& moment1() const { return m_; }
  const std::vector<Mat>& moment2() const { return v_; }
  /// Restores optimizer state from a checkpoint. Shapes must match the
  /// parameter list exactly; throws std::runtime_error otherwise (the
  /// optimizer is left untouched on failure).
  void restore(long t, std::vector<Mat> m, std::vector<Mat> v);

 private:
  std::vector<Tensor> params_;
  std::vector<Mat> m_, v_;
  float lr_, beta1_, beta2_, eps_;
  long t_ = 0;
};

}  // namespace nettag
