// Bidirectional transformer text encoder: the ExprLLM / NV-Embed substitute.
//
// The paper initializes ExprLLM from LLM2Vec (Llama-3.1-8B with causal
// attention converted to bidirectional) and the RTL encoder from NV-Embed.
// We train the same *shape* of model from scratch at CPU scale: token +
// position embeddings, pre-norm transformer blocks with bidirectional
// attention, final layer norm, mean pooling, and a projection head. Three
// size tiers mirror the paper's Fig. 7 scaling axis (BERT-110M / 1.3B / 8B).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "expr/tokenizer.hpp"
#include "nn/layers.hpp"
#include "util/lru.hpp"

namespace nettag {

struct TextEncoderConfig {
  int d_model = 48;
  int num_layers = 2;
  int num_heads = 4;
  int d_ff = 96;
  int max_len = 96;
  int out_dim = 48;  ///< projection output (the embedding dimension)
  /// Size tiers for the scaling study (Fig. 7).
  static TextEncoderConfig tiny();   ///< "BERT-110M" analog
  static TextEncoderConfig small();  ///< "Llama-1.3B" analog
  static TextEncoderConfig base();   ///< "Llama-8B" analog
};

/// Encodes attribute/RTL text into a fixed-size embedding (1 x out_dim).
class TextEncoder : public Module {
 public:
  TextEncoder(const Vocab& vocab, const TextEncoderConfig& config, Rng& rng);

  /// Embedding of one text (1 x out_dim). Training mode keeps the graph.
  Tensor encode(const std::string& text) const;
  Tensor encode_ids(const std::vector<int>& ids) const;

  /// Batch of texts stacked into rows (B x out_dim).
  Tensor encode_batch(const std::vector<std::string>& texts) const;

  const TextEncoderConfig& config() const { return config_; }
  const Vocab& vocab() const { return vocab_; }
  std::vector<Tensor> params() const override;

 private:
  const Vocab& vocab_;
  TextEncoderConfig config_;
  std::unique_ptr<EmbeddingLayer> tok_emb_;
  Tensor pos_emb_;  ///< max_len x d_model
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
  std::unique_ptr<LayerNorm> final_ln_;
  std::unique_ptr<Linear> proj_;
};

/// Bounded thread-safe LRU cache for *frozen* text-encoder embeddings,
/// keyed by the packed token-id sequence (attribute tokenization anonymizes
/// instance names, so structurally identical attributes share one entry).
///
/// The encoder is frozen at inference time, so a cached row is always valid;
/// boundedness matters because a serving daemon sees an unbounded stream of
/// distinct attributes and the old unbounded map grew without limit under
/// sustained traffic. Hit/miss/eviction counters feed the serve `stats`
/// endpoint. Lookup and insert take a per-stripe mutex; callers run the
/// encode itself outside the lock (a racing duplicate encode produces the
/// identical value, so which insert wins does not affect results).
///
/// The cache is internally *lock-striped*: keys hash onto one of
/// `partitions()` independent (mutex, LruMap) stripes, so the shard workers
/// of the socket daemon (src/net) do not serialize on one text-cache mutex.
/// The default is one stripe — exactly the previous single-lock behavior;
/// the daemon raises it to its shard count at startup. Capacity is the
/// *total* across stripes; LRU age is per-stripe (a key evicts only against
/// keys in its own stripe), which bounds memory identically and only
/// reshuffles which cold entry goes first.
class TextEmbeddingCache {
 public:
  static constexpr std::size_t kDefaultEntries = 4096;

  explicit TextEmbeddingCache(std::size_t max_entries = kDefaultEntries);

  /// Copies the cached row into *out and promotes the entry. Counts a hit
  /// or a miss either way.
  bool lookup(const std::string& key, std::vector<float>* out);

  /// Inserts (or overwrites) one row, evicting the coldest beyond capacity.
  void insert(const std::string& key, std::vector<float> row);

  void clear();
  void set_capacity(std::size_t max_entries);
  /// Re-partitions into `n` stripes (clamped to [1, 64]), redistributing
  /// current entries by key hash; counters are kept. Not a hot-path call —
  /// the daemon does this once before traffic, and it must not race with
  /// lookups/inserts (it rebuilds the stripe vector).
  void set_partitions(std::size_t n);
  std::size_t partitions() const;

  std::size_t size() const;
  std::size_t capacity() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;

 private:
  struct Stripe {
    std::mutex mu;
    LruMap<std::string, std::vector<float>> map;
    std::uint64_t hits = 0, misses = 0, evictions = 0;
    explicit Stripe(std::size_t cap) : map(cap) {}
  };
  Stripe& stripe_for(const std::string& key) const;

  /// Stripe layout (count, per-stripe capacity) is fixed between the
  /// configuration calls above; per-key operations lock only their stripe.
  /// `layout_mu_` guards the whole-cache walks (size/clear/counters).
  mutable std::mutex layout_mu_;
  std::size_t total_capacity_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace nettag
