#include "model/tagformer.hpp"

#include <algorithm>
#include <string>

#include "nn/forward.hpp"

namespace nettag {

TagFormer::TagFormer(const TagFormerConfig& config, Rng& rng) : config_(config) {
  cls_feat_ = make_param(1, config.in_dim, rng, 0.5f);
  proj_in_ = std::make_unique<Linear>(config.in_dim, config.d_model, rng);
  for (int l = 0; l < config.num_layers; ++l) {
    Layer layer;
    layer.attn =
        std::make_unique<MultiHeadAttention>(config.d_model, kNumHeads, rng);
    layer.ln_attn = std::make_unique<LayerNorm>(config.d_model);
    layer.gcn = std::make_unique<Linear>(config.d_model, config.d_model, rng);
    layer.ln_gcn = std::make_unique<LayerNorm>(config.d_model);
    layers_.push_back(std::move(layer));
  }
  // Jumping-knowledge output: the final projection sees both the refined
  // representation and the input projection, so gate-level text semantics
  // survive the structural mixing (TAGFormer "refines" ExprLLM embeddings
  // rather than replacing them).
  proj_out_ = std::make_unique<Linear>(2 * config.d_model, config.out_dim, rng);
}

TagFormer::Output TagFormer::forward(const Tensor& feats,
                                     const Tensor& adj_with_cls) const {
  const int n = feats->value.rows;
  // Append the virtual CLS node's learned feature row.
  Tensor x = concat_rows({feats, cls_feat_});
  x = proj_in_->forward(x);
  const Tensor x0 = x;
  for (const Layer& layer : layers_) {
    // Global attention (SGFormer's "simple global attention" role).
    x = layer.ln_attn->forward(add(x, layer.attn->forward(x)));
    // Graph propagation over the netlist topology.
    Tensor conv = relu(layer.gcn->forward(matmul(adj_with_cls, x)));
    x = layer.ln_gcn->forward(add(x, conv));
  }
  x = proj_out_->forward(concat_cols(x, x0));
  Output out;
  out.nodes = slice_rows(x, 0, n);
  out.cls = slice_rows(x, n, 1);
  return out;
}

TagFormer::Embeddings TagFormer::infer(const Mat& feats,
                                       const Mat& adj_with_cls) const {
  const int n = feats.rows;
  NETTAG_CHECK(feats.cols == config_.in_dim,
               "TagFormer::infer: features are " + std::to_string(feats.cols) +
                   " wide, the model takes " + std::to_string(config_.in_dim));
  NETTAG_CHECK(adj_with_cls.rows == n + 1 && adj_with_cls.cols == n + 1,
               "TagFormer::infer: adjacency is " +
                   std::to_string(adj_with_cls.rows) + "x" +
                   std::to_string(adj_with_cls.cols) + " for " +
                   std::to_string(n) + " gates, want " + std::to_string(n + 1) +
                   "x" + std::to_string(n + 1));
  // Each step below is one op of forward(), scanned under that op's name.
  Mat x(n + 1, config_.in_dim);
  std::copy(feats.v.begin(), feats.v.end(), x.v.begin());
  std::copy(cls_feat_->value.v.begin(), cls_feat_->value.v.end(),
            x.v.begin() + static_cast<std::ptrdiff_t>(feats.v.size()));
  fwd::scan_output(x, "concat_rows");
  x = proj_in_->infer(x);
  const Mat x0 = x;
  for (const Layer& layer : layers_) {
    fwd::add(x, layer.attn->infer(x));
    fwd::scan_output(x, "add");
    x = layer.ln_attn->infer(x);
    Mat mixed(n + 1, x.cols);
    fwd::matmul(adj_with_cls, x, mixed);
    fwd::scan_output(mixed, "matmul");
    Mat conv = layer.gcn->infer(mixed);
    fwd::relu(conv);
    fwd::scan_output(conv, "relu");
    fwd::add(x, conv);
    fwd::scan_output(x, "add");
    x = layer.ln_gcn->infer(x);
  }
  const int d = x.cols;
  Mat joined(n + 1, 2 * d);
  for (int i = 0; i <= n; ++i) {
    float* row = joined.v.data() + static_cast<std::size_t>(i) * 2 * d;
    std::copy_n(x.v.data() + static_cast<std::size_t>(i) * d, d, row);
    std::copy_n(x0.v.data() + static_cast<std::size_t>(i) * d, d, row + d);
  }
  fwd::scan_output(joined, "concat_cols");
  const Mat y = proj_out_->infer(joined);
  Embeddings out;
  out.nodes = Mat(n, y.cols);
  std::copy_n(y.v.begin(), out.nodes.v.size(), out.nodes.v.begin());
  fwd::scan_output(out.nodes, "slice_rows");
  out.cls = Mat(1, y.cols);
  std::copy_n(y.v.begin() + static_cast<std::ptrdiff_t>(out.nodes.v.size()),
              y.cols, out.cls.v.begin());
  fwd::scan_output(out.cls, "slice_rows");
  return out;
}

std::vector<Tensor> TagFormer::params() const {
  std::vector<Tensor> out{cls_feat_};
  for (const Tensor& p : proj_in_->params()) out.push_back(p);
  for (const Layer& layer : layers_) {
    for (const Tensor& p : layer.attn->params()) out.push_back(p);
    for (const Tensor& p : layer.ln_attn->params()) out.push_back(p);
    for (const Tensor& p : layer.gcn->params()) out.push_back(p);
    for (const Tensor& p : layer.ln_gcn->params()) out.push_back(p);
  }
  for (const Tensor& p : proj_out_->params()) out.push_back(p);
  return out;
}

}  // namespace nettag
