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

namespace {

/// Per-stripe share of the total capacity: ceiling split, at least 1 entry
/// per stripe so a tiny capacity with many stripes still caches something.
std::size_t stripe_capacity(std::size_t total, std::size_t stripes) {
  if (stripes == 0) stripes = 1;
  const std::size_t share = (total + stripes - 1) / stripes;
  return share == 0 ? 1 : share;
}

}  // namespace

TextEmbeddingCache::TextEmbeddingCache(std::size_t max_entries)
    : total_capacity_(max_entries) {
  stripes_.push_back(std::make_unique<Stripe>(max_entries));
}

TextEmbeddingCache::Stripe& TextEmbeddingCache::stripe_for(
    const std::string& key) const {
  if (stripes_.size() == 1) return *stripes_[0];
  return *stripes_[std::hash<std::string>{}(key) % stripes_.size()];
}

bool TextEmbeddingCache::lookup(const std::string& key,
                                std::vector<float>* out) {
  Stripe& s = stripe_for(key);
  std::lock_guard<std::mutex> lk(s.mu);
  if (const std::vector<float>* row = s.map.get(key)) {
    ++s.hits;
    *out = *row;
    return true;
  }
  ++s.misses;
  return false;
}

void TextEmbeddingCache::insert(const std::string& key,
                                std::vector<float> row) {
  Stripe& s = stripe_for(key);
  std::lock_guard<std::mutex> lk(s.mu);
  s.evictions += s.map.put(key, std::move(row));
}

void TextEmbeddingCache::clear() {
  std::lock_guard<std::mutex> layout(layout_mu_);
  for (auto& s : stripes_) {
    std::lock_guard<std::mutex> lk(s->mu);
    s->map.clear();
  }
}

void TextEmbeddingCache::set_capacity(std::size_t max_entries) {
  std::lock_guard<std::mutex> layout(layout_mu_);
  total_capacity_ = max_entries;
  const std::size_t per = stripe_capacity(max_entries, stripes_.size());
  for (auto& s : stripes_) {
    std::lock_guard<std::mutex> lk(s->mu);
    s->evictions += s->map.set_capacity(per);
  }
}

void TextEmbeddingCache::set_partitions(std::size_t n) {
  if (n < 1) n = 1;
  if (n > 64) n = 64;
  std::lock_guard<std::mutex> layout(layout_mu_);
  if (n == stripes_.size()) return;
  const std::size_t per = stripe_capacity(total_capacity_, n);
  std::vector<std::unique_ptr<Stripe>> fresh;
  fresh.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    fresh.push_back(std::make_unique<Stripe>(per));
  }
  // Redistribute current entries by key hash (oldest-first per old stripe,
  // so relative recency survives within each new stripe) and carry the
  // counters over — repartitioning must not reset observability.
  for (auto& old : stripes_) {
    std::lock_guard<std::mutex> lk(old->mu);
    old->map.for_each_oldest_first(
        [&](const std::string& key, std::vector<float>& row) {
          Stripe& dst = n == 1
                            ? *fresh[0]
                            : *fresh[std::hash<std::string>{}(key) % n];
          dst.evictions += dst.map.put(key, std::move(row));
        });
    fresh[0]->hits += old->hits;
    fresh[0]->misses += old->misses;
    fresh[0]->evictions += old->evictions;
  }
  stripes_ = std::move(fresh);
}

std::size_t TextEmbeddingCache::partitions() const {
  std::lock_guard<std::mutex> layout(layout_mu_);
  return stripes_.size();
}

std::size_t TextEmbeddingCache::size() const {
  std::lock_guard<std::mutex> layout(layout_mu_);
  std::size_t total = 0;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lk(s->mu);
    total += s->map.size();
  }
  return total;
}

std::size_t TextEmbeddingCache::capacity() const {
  std::lock_guard<std::mutex> layout(layout_mu_);
  return total_capacity_;
}

std::uint64_t TextEmbeddingCache::hits() const {
  std::lock_guard<std::mutex> layout(layout_mu_);
  std::uint64_t total = 0;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lk(s->mu);
    total += s->hits;
  }
  return total;
}

std::uint64_t TextEmbeddingCache::misses() const {
  std::lock_guard<std::mutex> layout(layout_mu_);
  std::uint64_t total = 0;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lk(s->mu);
    total += s->misses;
  }
  return total;
}

std::uint64_t TextEmbeddingCache::evictions() const {
  std::lock_guard<std::mutex> layout(layout_mu_);
  std::uint64_t total = 0;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lk(s->mu);
    total += s->evictions;
  }
  return total;
}

}  // namespace nettag
