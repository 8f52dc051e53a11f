#include "model/gcn.hpp"

namespace nettag {

namespace {

constexpr int kLayers = 3;
constexpr int kHidden = 48;

}  // namespace

Gcn::Gcn(int in_dim, int out_dim, Rng& rng) {
  int in = in_dim;
  for (int l = 0; l < kLayers; ++l) {
    const int out = l + 1 == kLayers ? out_dim : kHidden;
    layers_.push_back(std::make_unique<Linear>(in, out, rng));
    in = out;
  }
}

Tensor Gcn::forward_nodes(const Tensor& feats, const Tensor& adj) const {
  Tensor x = feats;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    x = layers_[l]->forward(matmul(adj, x));
    if (l + 1 < layers_.size()) x = relu(x);
  }
  return x;
}

Tensor Gcn::forward_graph(const Tensor& feats, const Tensor& adj) const {
  return mean_rows(forward_nodes(feats, adj));
}

std::vector<Tensor> Gcn::params() const {
  std::vector<Tensor> out;
  for (const auto& l : layers_) {
    for (const Tensor& p : l->params()) out.push_back(p);
  }
  return out;
}

}  // namespace nettag
