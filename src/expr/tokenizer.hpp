// Tokenizer and vocabulary for the text encoders (ExprEncoder / RtlEncoder).
//
// Gate text attributes mix Boolean-expression syntax, gate-type words, and
// bucketized physical quantities. To make the encoder generalize across
// designs, variable/instance names are anonymized on the fly: the i-th
// distinct identifier in a text becomes the token "vI" (I mod kMaxVars), so
// "U3 = !(R1|R2)" and "g7 = !(a|b)" produce identical token streams. This
// mirrors how LLM tokenization abstracts over surface names far better than
// per-name embeddings would at our scale.
//
// tokenize_text and encode_text share one scanner; encode_text maps each
// token to its id as it is scanned, without building token strings.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace nettag {

/// Fixed vocabulary shared by all text encoders. Token ids are stable across
/// runs (the vocabulary is constructed deterministically, not learned).
class Vocab {
 public:
  Vocab();

  /// Id of a token; unknown tokens map to the [UNK] id.
  int id(std::string_view token) const;

  /// Token string for an id (for debugging).
  const std::string& token(int id) const;

  int size() const { return static_cast<int>(tokens_.size()); }

  int pad_id() const { return pad_id_; }
  int unk_id() const { return unk_id_; }
  int cls_id() const { return cls_id_; }

  /// Number of anonymized-variable slots ("v0".."v{N-1}").
  static constexpr int kMaxVars = 24;
  /// Number of buckets for each physical quantity ("b0".."b{N-1}").
  static constexpr int kNumBuckets = 8;

 private:
  friend std::vector<int> encode_text(const Vocab& vocab,
                                      const std::string& text,
                                      std::size_t max_len);

  /// Transparent hash so lookups take a std::string_view without a copy.
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  void add(const std::string& token);

  std::vector<std::string> tokens_;
  std::unordered_map<std::string, int, Hash, std::equal_to<>> index_;
  int pad_id_ = 0, unk_id_ = 0, cls_id_ = 0;
  // Id tables for the tokens encode_text emits without a lookup.
  std::array<int, 256> char_id_{};          ///< one-byte tokens, by byte
  std::array<int, kMaxVars> var_id_{};      ///< "v0".."v{kMaxVars-1}"
  int zero_id_ = 0, one_id_ = 0, num_id_ = 0;  ///< "0", "1", "<num>"
};

/// Splits attribute text into raw token strings. Identifiers are anonymized
/// per-call ("v0", "v1", ... in order of first appearance); operators,
/// punctuation, keywords, and bucket tokens pass through.
std::vector<std::string> tokenize_text(const std::string& text);

/// The ids of tokenize_text(text) under `vocab`, truncated to `max_len`
/// (0 = no limit). Scanning stops once `max_len` ids are out.
std::vector<int> encode_text(const Vocab& vocab, const std::string& text,
                             std::size_t max_len = 0);

/// Maps a physical quantity to its bucket token ("b0".."b7") using a
/// logarithmic scale over [lo, hi]. Values outside clamp to the end buckets.
std::string bucket_token(double value, double lo, double hi);

}  // namespace nettag
