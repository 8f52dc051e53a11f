#include "core/nettag.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/check.hpp"
#include "model/graph.hpp"
#include "netlist/cone.hpp"
#include "util/checksum.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace nettag {

NetTag::NetTag(const NetTagConfig& config, std::uint64_t seed)
    : config_(config),
      init_rng_(seed),
      text_cache_(
          std::make_shared<TextEmbeddingCache>(config.text_cache_entries)) {
  expr_llm_ = std::make_unique<TextEncoder>(vocab_, config.expr_llm, init_rng_);
  TagFormerConfig tf;
  tf.in_dim = tag_in_dim();
  tf.d_model = config.tag_d_model;
  tf.num_layers = config.tag_layers;
  tf.out_dim = config.out_dim;
  tagformer_ = std::make_unique<TagFormer>(tf, init_rng_);
}

int NetTag::tag_in_dim() const {
  const int text_dim = config_.use_text_attributes
                           ? config_.expr_llm.out_dim
                           : netlist_base_feature_dim();
  return text_dim + netlist_phys_feature_dim();
}

std::vector<float> NetTag::cached_text_embedding(const std::string& attr) const {
  // Cache key: the replica salt (empty for a privately-owned cache) plus the
  // anonymized token-id sequence, so attributes differing only by instance
  // names share an entry while models with different weights (salts) do not.
  const std::vector<int> ids =
      encode_text(vocab_, attr, static_cast<std::size_t>(config_.expr_llm.max_len));
  std::string key = text_key_salt_;
  key.reserve(key.size() + ids.size() * 2);
  for (int id : ids) {
    key.push_back(static_cast<char>(id & 0xff));
    key.push_back(static_cast<char>((id >> 8) & 0xff));
  }
  std::vector<float> row;
  if (text_cache_->lookup(key, &row)) return row;
  // Encode outside the cache lock; a racing duplicate encode produces the
  // identical value, so which thread's insert wins does not affect results.
  row = expr_llm_->infer_ids(ids).v;
  text_cache_->insert(key, row);
  return row;
}

void NetTag::share_text_cache(std::shared_ptr<TextEmbeddingCache> cache,
                              std::string key_salt) {
  if (cache) text_cache_ = std::move(cache);
  text_key_salt_ = std::move(key_salt);
}

Mat NetTag::input_features(const TagGraph& tag, const Mat& base_feats) const {
  const int n = tag.num_nodes();
  const int phys_dim = tag.phys.cols;
  Mat feats(n, tag_in_dim());
  if (config_.use_text_attributes) {
    const int d = config_.expr_llm.out_dim;
    for (int i = 0; i < n; ++i) {
      const std::vector<float> row =
          cached_text_embedding(tag.attrs[static_cast<std::size_t>(i)]);
      // A shared cache can hand back another replica's row on a salt
      // collision; a row of the wrong width fails the embed, not the process.
      NETTAG_CHECK(static_cast<int>(row.size()) == d,
                   "input_features: cached text embedding is " +
                       std::to_string(row.size()) +
                       " wide, the model's text width is " +
                       std::to_string(d));
      for (int j = 0; j < d; ++j) feats.at(i, j) = row[static_cast<std::size_t>(j)];
      for (int j = 0; j < phys_dim; ++j) feats.at(i, d + j) = tag.phys.at(i, j);
    }
  } else {
    NETTAG_CHECK(base_feats.rows == n,
                 "input_features: base features have " +
                     std::to_string(base_feats.rows) + " rows for " +
                     std::to_string(n) + " TAG nodes");
    const int d = base_feats.cols;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < d; ++j) feats.at(i, j) = base_feats.at(i, j);
      for (int j = 0; j < phys_dim; ++j) feats.at(i, d + j) = tag.phys.at(i, j);
    }
  }
  return feats;
}

TagFormer::Output NetTag::forward_features(
    const Mat& features, const std::vector<std::pair<int, int>>& edges) const {
  return forward_tensor(make_tensor(features, false), edges);
}

TagFormer::Output NetTag::forward_tensor(
    const Tensor& features, const std::vector<std::pair<int, int>>& edges) const {
  const int n = features->value.rows;
  Tensor adj = make_tensor(tag_adjacency(n, edges), false);
  return tagformer_->forward(features, adj);
}

NetTag::ConeEmbedding NetTag::embed(const Netlist& nl, int k_hop_override,
                                    EmbedTiming* timing) const {
  Timer t;
  const TagGraph tag =
      build_tag(nl, k_hop_override > 0 ? k_hop_override : config_.k_hop);
  if (timing) timing->tag_build.fetch_add(t.seconds());
  const Mat base = config_.use_text_attributes ? Mat() : netlist_base_features(nl);
  t.reset();
  Mat feats = input_features(tag, base);
  if (timing) timing->text_encode.fetch_add(t.seconds());
  t.reset();
  TagFormer::Embeddings out =
      tagformer_->infer(feats, tag_adjacency(feats.rows, tag.edges));
  if (timing) timing->tagformer.fetch_add(t.seconds());
  ConeEmbedding emb;
  emb.nodes = std::move(out.nodes);
  emb.cls = std::move(out.cls);
  emb.inputs = std::move(feats);
  return emb;
}

Mat NetTag::cone_feature(const Netlist& cone) const {
  const ConeEmbedding emb = embed(cone);
  // Locate the cone's register (a cone has exactly one DFF); fall back to
  // the last node for combinational snippets.
  int reg_row = static_cast<int>(cone.size()) - 1;
  for (const Gate& g : cone.gates()) {
    if (g.type == CellType::kDff) {
      reg_row = static_cast<int>(g.id);
      break;
    }
  }
  const int max_depth = logic_depth(cone);
  Mat out(1, cone_feature_dim());
  int at = 0;
  for (int j = 0; j < config_.out_dim; ++j) out.at(0, at++) = emb.cls.at(0, j);
  for (int j = 0; j < config_.out_dim; ++j) {
    out.at(0, at++) = emb.nodes.at(reg_row, j);
  }
  for (int j = 0; j < emb.inputs.cols; ++j) {
    out.at(0, at++) = emb.inputs.at(reg_row, j);
  }
  out.at(0, at++) = std::log1p(static_cast<float>(cone.size())) / 5.f;
  out.at(0, at++) = static_cast<float>(max_depth) / 20.f;
  return out;
}

Mat NetTag::embed_circuit(const Netlist& nl, std::size_t max_cone_gates,
                          EmbedTiming* timing) const {
  const std::vector<GateId> regs = nl.registers();
  if (regs.empty()) {
    return embed(nl, 0, timing).cls;
  }
  // Embed cones in parallel; reduce in register order so the float-addition
  // sequence (and therefore the result) matches the serial loop bit-for-bit.
  std::vector<Mat> cone_cls(regs.size());
  const std::vector<std::size_t> position = topo_positions(nl);
  ThreadPool::instance().run_indexed(regs.size(), [&](std::size_t i) {
    const RegisterCone rc = extract_cone(nl, regs[i], max_cone_gates, position);
    cone_cls[i] = embed(rc.cone, 0, timing).cls;
  });
  Mat sum(1, config_.out_dim);
  for (const Mat& cls : cone_cls) {
    for (int j = 0; j < config_.out_dim; ++j) sum.at(0, j) += cls.at(0, j);
  }
  return sum;
}

std::uint32_t params_fingerprint(const NetTag& model) {
  std::uint32_t crc = 0;
  auto fold = [&crc](const std::vector<Tensor>& params) {
    for (const Tensor& p : params) {
      crc = crc32(p->value.v.data(), p->value.v.size() * sizeof(float), crc);
    }
  };
  fold(model.expr_llm().params());
  fold(model.tagformer().params());
  return crc;
}

}  // namespace nettag
