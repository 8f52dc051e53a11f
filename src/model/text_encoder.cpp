#include "model/text_encoder.hpp"

#include "util/parallel.hpp"

namespace nettag {

TextEncoderConfig TextEncoderConfig::tiny() {
  TextEncoderConfig c;
  c.d_model = 16;
  c.num_layers = 1;
  c.num_heads = 2;
  c.d_ff = 32;
  c.out_dim = 48;
  return c;
}

TextEncoderConfig TextEncoderConfig::small() {
  TextEncoderConfig c;
  c.d_model = 32;
  c.num_layers = 2;
  c.num_heads = 2;
  c.d_ff = 64;
  c.out_dim = 48;
  return c;
}

TextEncoderConfig TextEncoderConfig::base() {
  TextEncoderConfig c;
  c.d_model = 48;
  c.num_layers = 2;
  c.num_heads = 4;
  c.d_ff = 96;
  c.out_dim = 48;
  return c;
}

TextEncoder::TextEncoder(const Vocab& vocab, const TextEncoderConfig& config,
                         Rng& rng)
    : vocab_(vocab), config_(config) {
  tok_emb_ = std::make_unique<EmbeddingLayer>(vocab.size(), config.d_model, rng);
  pos_emb_ = make_param(config.max_len, config.d_model, rng, 0.5f);
  for (int l = 0; l < config.num_layers; ++l) {
    blocks_.push_back(std::make_unique<TransformerBlock>(
        config.d_model, config.num_heads, config.d_ff, rng));
  }
  final_ln_ = std::make_unique<LayerNorm>(config.d_model);
  proj_ = std::make_unique<Linear>(config.d_model, config.out_dim, rng);
}

Tensor TextEncoder::encode_ids(const std::vector<int>& ids) const {
  std::vector<int> clipped = ids;
  if (static_cast<int>(clipped.size()) > config_.max_len) {
    clipped.resize(static_cast<std::size_t>(config_.max_len));
  }
  if (clipped.empty()) clipped.push_back(vocab_.cls_id());
  Tensor x = tok_emb_->forward(clipped);
  // Add position embeddings (slice the table to the sequence length).
  Tensor pos = slice_rows(pos_emb_, 0, static_cast<int>(clipped.size()));
  x = add(x, pos);
  for (const auto& blk : blocks_) x = blk->forward(x);
  x = final_ln_->forward(x);
  // Mean pooling over tokens, then projection (LLM2Vec-style pooling).
  return proj_->forward(mean_rows(x));
}

Tensor TextEncoder::encode(const std::string& text) const {
  return encode_ids(encode_text(vocab_, text,
                                static_cast<std::size_t>(config_.max_len)));
}

Tensor TextEncoder::encode_batch(const std::vector<std::string>& texts) const {
  // Per-text forwards are independent (pure reads of the weights); the
  // indexed fan-out keeps row order, so the result matches the serial loop.
  std::vector<Tensor> rows(texts.size());
  ThreadPool::instance().run_indexed(texts.size(), [&](std::size_t i) {
    rows[i] = encode(texts[i]);
  });
  return concat_rows(rows);
}

std::vector<Tensor> TextEncoder::params() const {
  std::vector<Tensor> out = tok_emb_->params();
  out.push_back(pos_emb_);
  for (const auto& blk : blocks_) {
    for (const Tensor& p : blk->params()) out.push_back(p);
  }
  for (const Tensor& p : final_ln_->params()) out.push_back(p);
  for (const Tensor& p : proj_->params()) out.push_back(p);
  return out;
}

TextEmbeddingCache::TextEmbeddingCache(std::size_t max_entries)
    : map_(max_entries) {}

bool TextEmbeddingCache::lookup(const std::string& key,
                                std::vector<float>* out) {
  std::lock_guard<std::mutex> lk(mu_);
  if (const std::vector<float>* row = map_.get(key)) {
    ++hits_;
    *out = *row;
    return true;
  }
  ++misses_;
  return false;
}

void TextEmbeddingCache::insert(const std::string& key,
                                std::vector<float> row) {
  std::lock_guard<std::mutex> lk(mu_);
  evictions_ += map_.put(key, std::move(row));
}

void TextEmbeddingCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  map_.clear();
}

std::size_t TextEmbeddingCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return map_.size();
}

std::uint64_t TextEmbeddingCache::hits() const {
  std::lock_guard<std::mutex> lk(mu_);
  return hits_;
}

std::uint64_t TextEmbeddingCache::misses() const {
  std::lock_guard<std::mutex> lk(mu_);
  return misses_;
}

std::uint64_t TextEmbeddingCache::evictions() const {
  std::lock_guard<std::mutex> lk(mu_);
  return evictions_;
}

}  // namespace nettag
