// NetTag: the foundation-model facade (paper §II-C, §II-F).
//
// Wraps ExprLLM (TextEncoder over gate text attributes) and TAGFormer into
// one model that produces multi-granularity embeddings:
//   * gate embeddings   — per-node outputs of TAGFormer,
//   * cone embeddings   — the [CLS] output of a register cone,
//   * circuit embeddings— [CLS] for combinational circuits, or the sum of
//     register-cone embeddings for sequential circuits (paper §II-F).
//
// ExprLLM is frozen during TAGFormer pre-training (paper's two-step recipe);
// a bounded token-sequence-keyed cache (TextEmbeddingCache) makes the frozen
// text encoder cheap because attribute tokenization anonymizes instance
// names, so structurally identical attributes share one cache entry.
//
// The inference API (embed/embed_circuit/cone_feature) is const: one shared
// model instance serves concurrent readers (src/serve runs requests on many
// threads over it), with the text cache as the only mutable state, guarded
// internally.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/tag.hpp"
#include "model/tagformer.hpp"
#include "model/text_encoder.hpp"
#include "netlist/netlist.hpp"

namespace nettag {

struct NetTagConfig {
  TextEncoderConfig expr_llm = TextEncoderConfig::base();
  int tag_d_model = 64;
  int tag_layers = 2;
  int out_dim = 48;
  int k_hop = 2;
  /// Ablation switch ("w/o text attributes" arm of Fig. 6): when false, the
  /// TAGFormer input uses structural one-hot features instead of ExprLLM
  /// text embeddings.
  bool use_text_attributes = true;
  /// Frozen-text-embedding cache bound (entries). The cache is keyed by
  /// anonymized token sequences, so this bounds memory under an unbounded
  /// stream of distinct attributes (serving traffic).
  std::size_t text_cache_entries = TextEmbeddingCache::kDefaultEntries;
};

/// Per-stage CPU-seconds accumulated by the embed path (serve observability).
/// Atomic so parallel cone embeds (embed_circuit fans out over the thread
/// pool) can accumulate race-free; summed worker time can therefore exceed
/// wall-clock.
struct EmbedTiming {
  std::atomic<double> tag_build{0.0};     ///< TAG construction (expressions)
  std::atomic<double> text_encode{0.0};   ///< ExprLLM rows (cache-aware)
  std::atomic<double> tagformer{0.0};     ///< TAGFormer forward
};

/// Portable pre-C++20 atomic accumulate (no atomic<double>::fetch_add).
inline void atomic_add_seconds(std::atomic<double>& slot, double seconds) {
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + seconds,
                                     std::memory_order_relaxed)) {
  }
}

class NetTag {
 public:
  NetTag(const NetTagConfig& config, std::uint64_t seed);

  const NetTagConfig& config() const { return config_; }
  const Vocab& vocab() const { return vocab_; }
  TextEncoder& expr_llm() { return *expr_llm_; }
  const TextEncoder& expr_llm() const { return *expr_llm_; }
  TagFormer& tagformer() { return *tagformer_; }
  const TagFormer& tagformer() const { return *tagformer_; }
  int embedding_dim() const { return config_.out_dim; }

  // --- inference API (values only; const — safe for shared concurrent use) --
  struct ConeEmbedding {
    Mat nodes;   ///< N x out_dim gate embeddings (TAGFormer-refined)
    Mat cls;     ///< 1 x out_dim graph embedding
    Mat inputs;  ///< N x tag_in_dim() raw input features (text emb | phys) —
                 ///< fine-tuning heads may consume these alongside `nodes`
  };

  /// Embeds one (cone or flat) netlist. `k_hop_override` > 0 replaces the
  /// configured expression depth (used for AIG data, where each library
  /// cell spans several AND/INV levels). `timing`, when non-null, receives
  /// per-stage seconds.
  ConeEmbedding embed(const Netlist& nl, int k_hop_override = 0,
                      EmbedTiming* timing = nullptr) const;

  /// Circuit-level embedding: [CLS] for combinational circuits, sum of
  /// register-cone [CLS] embeddings for sequential ones (paper §II-F).
  Mat embed_circuit(const Netlist& nl, std::size_t max_cone_gates = 120,
                    EmbedTiming* timing = nullptr) const;

  /// Register-cone feature row for fine-tuning (Tasks 2/3): the cone [CLS]
  /// embedding, the register node's refined embedding, the register node's
  /// raw input features (text-embedding + phys), and two netlist-stage
  /// scalars (log gate count, logic depth). Width = cone_feature_dim().
  Mat cone_feature(const Netlist& cone) const;
  int cone_feature_dim() const { return 2 * config_.out_dim + tag_in_dim() + 2; }

  // --- training-time API (keeps autograd graphs) ---------------------------
  /// TAGFormer input features for a TAG: [text embedding | x_phys] rows
  /// (constant — ExprLLM frozen, cached), or structural features in the
  /// w/o-text ablation. `base_feats` must be provided when text is off.
  Mat input_features(const TagGraph& tag, const Mat& base_feats) const;

  /// Full forward through TAGFormer with autograd (for pre-training).
  TagFormer::Output forward_features(
      const Mat& features, const std::vector<std::pair<int, int>>& edges) const;

  /// Forward from an already-built feature *tensor* (used by the masked-gate
  /// objective, whose inputs mix constant rows with a learned [MASK] row).
  TagFormer::Output forward_tensor(
      const Tensor& features,
      const std::vector<std::pair<int, int>>& edges) const;

  /// TAGFormer input width (text-emb + phys, or base + phys).
  int tag_in_dim() const;

  // --- persistence ---------------------------------------------------------
  void save(const std::string& path_prefix) const;
  void load(const std::string& path_prefix);

  void clear_text_cache() { text_cache_->clear(); }
  std::size_t text_cache_size() const { return text_cache_->size(); }
  /// Counter access for the serve `stats` endpoint.
  const TextEmbeddingCache& text_cache() const { return *text_cache_; }
  TextEmbeddingCache& text_cache() { return *text_cache_; }
  /// The cache as a shareable handle (serve/registry.hpp adopts the first
  /// replica's cache as the process-wide striped cache).
  std::shared_ptr<TextEmbeddingCache> text_cache_ptr() const {
    return text_cache_;
  }

  /// Attaches a shared text-embedding cache (replacing this model's own) and
  /// a key salt prefixed to every cache key. The serve model registry gives
  /// all replicas one striped cache but salts each replica's keys with its
  /// weights CRC: replicas loaded from the same checkpoint share entries,
  /// while different weights can never replay each other's rows (the cached
  /// value depends on the encoder parameters, not just the token sequence).
  /// Must not race with lookups (call before the model takes traffic).
  void share_text_cache(std::shared_ptr<TextEmbeddingCache> cache,
                        std::string key_salt);

 private:
  /// Frozen text embedding of one attribute, cached by token-id sequence.
  std::vector<float> cached_text_embedding(const std::string& attr) const;

  NetTagConfig config_;
  Vocab vocab_;
  Rng init_rng_;
  std::unique_ptr<TextEncoder> expr_llm_;
  std::unique_ptr<TagFormer> tagformer_;
  mutable std::shared_ptr<TextEmbeddingCache> text_cache_;
  /// Prefixed to every text-cache key (empty for a privately-owned cache).
  std::string text_key_salt_;
};

// --- checkpoints -------------------------------------------------------------
//
// save() writes bare parameter files; a *checkpoint* additionally records the
// architecture in a `<prefix>.ckpt` manifest so a consumer (the serving
// daemon, a fresh process) can reconstruct the model without out-of-band
// knowledge of its configuration.

/// Writes `<prefix>.ckpt` (architecture manifest) plus the parameter files.
void save_checkpoint(const NetTag& model, const std::string& prefix);

/// Reads the manifest written by save_checkpoint. Throws std::runtime_error
/// on missing/malformed manifests, unknown format versions, duplicate keys
/// (the error names both source lines), non-positive dimensions, or an
/// attention-head count that does not divide expr_d_model.
NetTagConfig read_checkpoint_config(const std::string& prefix);

/// CRC-32 over every parameter matrix (ExprLLM then TAGFormer, list order).
/// Cheap identity for "are these the same weights?" — folded into serve
/// cache keys so a hot-swapped checkpoint cannot replay stale entries.
std::uint32_t params_fingerprint(const NetTag& model);

/// Reconstructs a model from `<prefix>.ckpt` + parameter files. The seed
/// only affects transient init values, which load() overwrites.
std::unique_ptr<NetTag> load_checkpoint(const std::string& prefix,
                                        std::uint64_t seed = 7);

}  // namespace nettag
