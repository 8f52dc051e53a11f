// Plain GCN backbone used by every task-specific baseline (GNN-RE, ReIGNN,
// the timing GNN of [2], the PowPrediCT-style power GNN, and the FGNN /
// DeepGate-style AIG encoders). Standard D^-1/2(A+I)D^-1/2 propagation with
// ReLU, plus mean-pool graph readout.
#pragma once

#include <memory>
#include <vector>

#include "nn/layers.hpp"

namespace nettag {

class Gcn : public Module {
 public:
  /// Three propagation layers, 48 wide inside.
  Gcn(int in_dim, int out_dim, Rng& rng);

  /// Node embeddings: N x out_dim.
  Tensor forward_nodes(const Tensor& feats, const Tensor& adj) const;

  /// Graph embedding: 1 x out_dim (mean pooled).
  Tensor forward_graph(const Tensor& feats, const Tensor& adj) const;

  std::vector<Tensor> params() const override;

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
};

}  // namespace nettag
