#include "nn/layers.hpp"

#include <string>

#include "nn/forward.hpp"

namespace nettag {

std::size_t Module::num_params() const {
  std::size_t n = 0;
  for (const Tensor& p : params()) n += p->value.v.size();
  return n;
}

Linear::Linear(int in_dim, int out_dim, Rng& rng)
    : w_(make_param(in_dim, out_dim, rng)),
      b_(make_tensor(Mat(1, out_dim), true)) {}

Tensor Linear::forward(const Tensor& x) const {
  return add_rowvec(matmul(x, w_), b_);
}

Mat Linear::infer(const Mat& x) const {
  Mat y(x.rows, w_->value.cols);
  fwd::matmul(x, w_->value, y);
  fwd::scan_output(y, "matmul");
  fwd::add_rowvec(y, b_->value);
  fwd::scan_output(y, "add_rowvec");
  return y;
}

LayerNorm::LayerNorm(int dim) {
  Mat g(1, dim);
  std::fill(g.v.begin(), g.v.end(), 1.f);
  gamma_ = make_tensor(std::move(g), true);
  beta_ = make_tensor(Mat(1, dim), true);
}

Tensor LayerNorm::forward(const Tensor& x) const {
  return layernorm_rows(x, gamma_, beta_, kEps);
}

Mat LayerNorm::infer(const Mat& x) const {
  Mat y(x.rows, x.cols);
  fwd::layernorm_rows(x, gamma_->value, beta_->value, kEps, y, nullptr,
                      nullptr);
  fwd::scan_output(y, "layer_norm");
  return y;
}

EmbeddingLayer::EmbeddingLayer(int vocab, int dim, Rng& rng)
    : table_(make_param(vocab, dim, rng)) {}

Tensor EmbeddingLayer::forward(const std::vector<int>& ids) const {
  return embedding(table_, ids);
}

Mat EmbeddingLayer::infer(const std::vector<int>& ids) const {
  Mat out(static_cast<int>(ids.size()), table_->value.cols);
  fwd::embedding(table_->value, ids, out);
  fwd::scan_output(out, "embedding");
  return out;
}

MultiHeadAttention::MultiHeadAttention(int d_model, int num_heads, Rng& rng)
    : num_heads_(num_heads) {
  NETTAG_CHECK(num_heads > 0 && d_model % num_heads == 0,
               "MultiHeadAttention: " + std::to_string(num_heads) +
                   " heads do not divide d_model " + std::to_string(d_model));
  wq_ = std::make_unique<Linear>(d_model, d_model, rng);
  wk_ = std::make_unique<Linear>(d_model, d_model, rng);
  wv_ = std::make_unique<Linear>(d_model, d_model, rng);
  wo_ = std::make_unique<Linear>(d_model, d_model, rng);
}

Tensor MultiHeadAttention::forward(const Tensor& x) const {
  const Tensor q = wq_->forward(x);
  const Tensor k = wk_->forward(x);
  const Tensor v = wv_->forward(x);
  return wo_->forward(attention_heads(q, k, v, num_heads_));
}

Mat MultiHeadAttention::infer(const Mat& x) const {
  const Mat q = wq_->infer(x);
  const Mat k = wk_->infer(x);
  const Mat v = wv_->infer(x);
  Mat heads(q.rows, q.cols);
  fwd::attention_heads(q, k, v, num_heads_, heads, nullptr);
  fwd::scan_output(heads, "attention_heads");
  return wo_->infer(heads);
}

std::vector<Tensor> MultiHeadAttention::params() const {
  return collect_params({wq_.get(), wk_.get(), wv_.get(), wo_.get()});
}

TransformerBlock::TransformerBlock(int d_model, int num_heads, int d_ff, Rng& rng) {
  ln1_ = std::make_unique<LayerNorm>(d_model);
  ln2_ = std::make_unique<LayerNorm>(d_model);
  attn_ = std::make_unique<MultiHeadAttention>(d_model, num_heads, rng);
  ff1_ = std::make_unique<Linear>(d_model, d_ff, rng);
  ff2_ = std::make_unique<Linear>(d_ff, d_model, rng);
}

Tensor TransformerBlock::forward(const Tensor& x) const {
  Tensor h = add(x, attn_->forward(ln1_->forward(x)));
  Tensor f = ff2_->forward(gelu(ff1_->forward(ln2_->forward(h))));
  return add(h, f);
}

Mat TransformerBlock::infer(Mat x) const {
  fwd::add(x, attn_->infer(ln1_->infer(x)));
  fwd::scan_output(x, "add");
  Mat f = ff1_->infer(ln2_->infer(x));
  fwd::gelu(f);
  fwd::scan_output(f, "gelu");
  fwd::add(x, ff2_->infer(f));
  fwd::scan_output(x, "add");
  return x;
}

std::vector<Tensor> TransformerBlock::params() const {
  return collect_params({ln1_.get(), ln2_.get(), attn_.get(), ff1_.get(),
                         ff2_.get()});
}

Mlp::Mlp(int in_dim, int hidden, int out_dim, Rng& rng) {
  l1_ = std::make_unique<Linear>(in_dim, hidden, rng);
  l2_ = std::make_unique<Linear>(hidden, hidden, rng);
  l3_ = std::make_unique<Linear>(hidden, out_dim, rng);
}

Tensor Mlp::forward(const Tensor& x) const {
  return l3_->forward(relu(l2_->forward(relu(l1_->forward(x)))));
}

std::vector<Tensor> Mlp::params() const {
  return collect_params({l1_.get(), l2_.get(), l3_.get()});
}

std::vector<Tensor> collect_params(
    std::initializer_list<const Module*> modules) {
  std::vector<Tensor> out;
  for (const Module* m : modules) {
    for (const Tensor& p : m->params()) out.push_back(p);
  }
  return out;
}

}  // namespace nettag
