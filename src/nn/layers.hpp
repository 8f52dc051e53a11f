// Neural layers built on the autograd tensor: linear, layer norm, embedding,
// multi-head bidirectional self-attention, transformer block, and MLP heads.
// These are the building blocks for ExprEncoder (the ExprLLM substitute),
// TAGFormer, the auxiliary encoders, and the fine-tuning heads.
//
// The encoder layers have two forwards. `forward` builds the autograd graph
// for training. `infer` computes the same values on plain matrices for
// callers that need no gradients: it runs the same kernels (nn/forward.hpp)
// in the same order, so its bytes equal forward()'s, and it keeps no graph
// and no gradient buffers.
#pragma once

#include <memory>
#include <vector>

#include "nn/tensor.hpp"

namespace nettag {

/// Base for parameterized modules: exposes a flat parameter list for Adam
/// and for (de)serialization.
class Module {
 public:
  virtual ~Module() = default;
  virtual std::vector<Tensor> params() const = 0;

  /// Total scalar parameter count.
  std::size_t num_params() const;
};

/// y = x W + b.
class Linear : public Module {
 public:
  Linear(int in_dim, int out_dim, Rng& rng);
  Tensor forward(const Tensor& x) const;
  Mat infer(const Mat& x) const;
  std::vector<Tensor> params() const override { return {w_, b_}; }

 private:
  Tensor w_, b_;
};

/// Row-wise layer normalization with learned gain/bias.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int dim);
  Tensor forward(const Tensor& x) const;
  Mat infer(const Mat& x) const;
  std::vector<Tensor> params() const override { return {gamma_, beta_}; }

 private:
  static constexpr float kEps = 1e-5f;
  Tensor gamma_, beta_;
};

/// Token embedding table.
class EmbeddingLayer : public Module {
 public:
  EmbeddingLayer(int vocab, int dim, Rng& rng);
  Tensor forward(const std::vector<int>& ids) const;
  Mat infer(const std::vector<int>& ids) const;
  std::vector<Tensor> params() const override { return {table_}; }
  int dim() const { return table_->value.cols; }

 private:
  Tensor table_;
};

/// Multi-head bidirectional self-attention over a (seq_len x d_model) input.
/// Bidirectional (not causal) — ExprLLM converts the decoder-only LLM to
/// bidirectional attention following LLM2Vec; we build it that way directly.
/// The heads run in one attention_heads node between the q/k/v projections
/// and the output projection. `num_heads` must divide `d_model` (CheckError).
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int d_model, int num_heads, Rng& rng);
  Tensor forward(const Tensor& x) const;
  Mat infer(const Mat& x) const;
  std::vector<Tensor> params() const override;

 private:
  int num_heads_;
  std::unique_ptr<Linear> wq_, wk_, wv_, wo_;
};

/// Pre-norm transformer encoder block: x + MHSA(LN(x)); x + FFN(LN(x)).
class TransformerBlock : public Module {
 public:
  TransformerBlock(int d_model, int num_heads, int d_ff, Rng& rng);
  Tensor forward(const Tensor& x) const;
  /// Takes `x` by value: the residual adds run in place on it.
  Mat infer(Mat x) const;
  std::vector<Tensor> params() const override;

 private:
  std::unique_ptr<LayerNorm> ln1_, ln2_;
  std::unique_ptr<MultiHeadAttention> attn_;
  std::unique_ptr<Linear> ff1_, ff2_;
};

/// 3-layer MLP head (the paper's fine-tuning model: "each MLP contains three
/// layers"), ReLU activations.
class Mlp : public Module {
 public:
  Mlp(int in_dim, int hidden, int out_dim, Rng& rng);
  Tensor forward(const Tensor& x) const;
  std::vector<Tensor> params() const override;

 private:
  std::unique_ptr<Linear> l1_, l2_, l3_;
};

/// Collects parameters from several modules into one flat list.
std::vector<Tensor> collect_params(
    std::initializer_list<const Module*> modules);

}  // namespace nettag
