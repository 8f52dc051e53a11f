// TAGFormer: the graph-transformer half of NetTAG (SGFormer backbone
// substitute, paper §II-C).
//
// Takes per-gate input features (ExprLLM text embedding concatenated with
// the physical characteristics vector), refines them with interleaved
// global self-attention and graph convolution over the netlist topology,
// and emits per-gate embeddings plus a graph-level [CLS] embedding. The
// [CLS] node is virtual: a learned input row connected to every gate.
#pragma once

#include <memory>
#include <vector>

#include "nn/layers.hpp"

namespace nettag {

struct TagFormerConfig {
  int in_dim = 0;      ///< set by caller: text_emb_dim + phys_dim
  int d_model = 64;
  int num_layers = 2;
  int out_dim = 48;    ///< final embedding dimension
};

class TagFormer : public Module {
 public:
  struct Output {
    Tensor nodes;  ///< N x out_dim gate embeddings
    Tensor cls;    ///< 1 x out_dim graph embedding
  };

  /// Attention heads per layer; TagFormerConfig::d_model must be a multiple.
  static constexpr int kNumHeads = 2;

  TagFormer(const TagFormerConfig& config, Rng& rng);

  /// `feats`: N x in_dim node features; `adj_with_cls`: (N+1)x(N+1)
  /// normalized adjacency from tag_adjacency() (CLS at index N).
  Output forward(const Tensor& feats, const Tensor& adj_with_cls) const;

  const TagFormerConfig& config() const { return config_; }
  std::vector<Tensor> params() const override;

 private:
  TagFormerConfig config_;
  Tensor cls_feat_;  ///< learned 1 x in_dim CLS input row
  std::unique_ptr<Linear> proj_in_;
  struct Layer {
    std::unique_ptr<MultiHeadAttention> attn;
    std::unique_ptr<LayerNorm> ln_attn;
    std::unique_ptr<Linear> gcn;
    std::unique_ptr<LayerNorm> ln_gcn;
  };
  std::vector<Layer> layers_;
  std::unique_ptr<Linear> proj_out_;
};

}  // namespace nettag
