#include "expr/tokenizer.hpp"

#include <algorithm>
#include <cmath>

#include "util/words.hpp"

namespace nettag {

namespace {

// Keywords that survive tokenization verbatim (lower-cased). This is the
// union of: gate/cell type names, attribute field names, and the RTL-level
// vocabulary emitted by rtlgen. Any other identifier is anonymized.
constexpr std::string_view kKeywords[] = {
    // cell types (lower-cased names from the cell library)
    "inv", "buf", "and2", "and3", "and4", "nand2", "nand3", "nand4", "or2",
    "or3", "or4", "nor2", "nor3", "nor4", "xor2", "xnor2", "mux2", "aoi21",
    "aoi22", "oai21", "oai22", "maj3", "dff", "const0", "const1", "port",
    // attribute field names
    "gate", "type", "expr", "area", "power", "leak", "delay", "cap", "res",
    "load", "toggle", "prob", "slack", "fanin", "fanout", "drive", "phys",
    "func", "name", "net", "cone", "depth", "level",
    // RTL vocabulary (rtlgen pseudo-verilog)
    "module", "endmodule", "assign", "if", "else", "case", "reg", "wire",
    "input", "output", "always", "posedge", "clk", "rst", "begin", "end",
    "add", "sub", "mul", "cmp", "mux", "shift", "rotate", "eq", "lt", "gt",
    "sel", "out", "in", "state", "next", "fsm", "counter", "crc", "parity",
    "encode", "decode", "lfsr", "alu", "datapath", "control", "bitwise",
    "reduce", "not", "and", "or", "xor", "xnor", "nand", "nor",
    // misc
    "<num>",
};

// Character classes of the C locale (nothing in the tree calls setlocale);
// is_space comes from util/words.hpp.
bool is_digit(unsigned char c) { return c >= '0' && c <= '9'; }
bool is_alpha(unsigned char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool is_ident_start(unsigned char c) { return is_alpha(c) || c == '_'; }
bool is_ident_char(unsigned char c) {
  return is_alpha(c) || is_digit(c) || c == '_' || c == '[' || c == ']';
}
char lower(unsigned char c) {
  return static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
}

// "v3" / "b7" shaped words are never anonymized; out-of-range shapes such as
// "b12" or "v01" stay themselves (and encode as [UNK]).
bool is_slot_shaped(std::string_view s) {
  if (s.size() < 2 || (s[0] != 'v' && s[0] != 'b')) return false;
  for (std::size_t i = 1; i < s.size(); ++i) {
    if (!is_digit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

/// One token as the scanner classifies it.
struct Piece {
  enum Kind { kWord, kVar, kNumber, kChar };
  Kind kind;
  /// kWord: the lower-cased identifier (valid during the callback only);
  /// kNumber: the digits-and-dots run as written.
  std::string_view text;
  /// kWord: what `word_id` returned (-1 for a slot-shaped non-word);
  /// kVar: the anonymization slot; kChar: the byte.
  int value = 0;
};

/// The one tokenizer scan. `word_id(lower)` returns a non-negative value
/// for a lower-cased identifier that is a vocabulary word (a keyword or an
/// in-range slot token) and -1 otherwise; any other identifier that is not
/// slot-shaped is anonymized, keyed case-sensitively by its bytes in `text`.
/// `emit(piece)` is called per token in order; scanning stops when it
/// returns false.
template <class WordId, class Emit>
void scan_text(std::string_view text, const WordId& word_id, const Emit& emit) {
  std::string low;  // reused lower-case buffer
  // Anonymized identifiers in order of first appearance, searched linearly:
  // an attribute names a handful, and encode_text stops at max_len ids.
  std::vector<std::string_view> named;
  std::size_t i = 0;
  while (i < text.size()) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (is_space(c)) {
      ++i;
      continue;
    }
    Piece piece{Piece::kChar, {}, c};
    if (is_ident_start(c)) {
      const std::size_t start = i;
      while (i < text.size() && is_ident_char(static_cast<unsigned char>(text[i]))) {
        ++i;
      }
      const std::string_view word = text.substr(start, i - start);
      low.resize(word.size());
      std::transform(word.begin(), word.end(), low.begin(),
                     [](char ch) { return lower(static_cast<unsigned char>(ch)); });
      const int id = word_id(std::string_view(low));
      if (id >= 0 || is_slot_shaped(low)) {
        piece = {Piece::kWord, low, id};
      } else {
        const auto n = static_cast<std::size_t>(
            std::find(named.begin(), named.end(), word) - named.begin());
        if (n == named.size()) named.push_back(word);
        piece = {Piece::kVar, {}, static_cast<int>(n % Vocab::kMaxVars)};
      }
    } else if (is_digit(c)) {
      const std::size_t start = i;
      while (i < text.size() &&
             (is_digit(static_cast<unsigned char>(text[i])) || text[i] == '.')) {
        ++i;
      }
      piece = {Piece::kNumber, text.substr(start, i - start), 0};
    } else {
      ++i;
    }
    if (!emit(piece)) return;
  }
}

}  // namespace

Vocab::Vocab() {
  add("[PAD]");
  add("[UNK]");
  add("[CLS]");
  pad_id_ = 0;
  unk_id_ = 1;
  cls_id_ = 2;
  // Single-character operator / punctuation tokens.
  for (char c : std::string("!&|^()=,:;{}<>+-*/@.")) {
    add(std::string(1, c));
  }
  add("0");
  add("1");
  for (std::string_view kw : kKeywords) add(std::string(kw));
  for (int i = 0; i < kMaxVars; ++i) add("v" + std::to_string(i));
  for (int i = 0; i < kNumBuckets; ++i) add("b" + std::to_string(i));

  for (std::size_t c = 0; c < char_id_.size(); ++c) {
    char_id_[c] = id(std::string(1, static_cast<char>(c)));
  }
  for (int i = 0; i < kMaxVars; ++i) {
    var_id_[static_cast<std::size_t>(i)] = id("v" + std::to_string(i));
  }
  zero_id_ = id("0");
  one_id_ = id("1");
  num_id_ = id("<num>");
}

void Vocab::add(const std::string& token) {
  if (index_.count(token)) return;
  index_[token] = static_cast<int>(tokens_.size());
  tokens_.push_back(token);
}

int Vocab::id(std::string_view token) const {
  auto it = index_.find(token);
  return it == index_.end() ? unk_id_ : it->second;
}

const std::string& Vocab::token(int id) const {
  static const std::string kBad = "[BAD]";
  if (id < 0 || id >= size()) return kBad;
  return tokens_[static_cast<std::size_t>(id)];
}

std::vector<std::string> tokenize_text(const std::string& text) {
  const auto keyword = [](std::string_view low) {
    const auto* it = std::find(std::begin(kKeywords), std::end(kKeywords), low);
    return it == std::end(kKeywords) ? -1
                                     : static_cast<int>(it - std::begin(kKeywords));
  };
  std::vector<std::string> out;
  scan_text(text, keyword, [&out](const Piece& p) {
    switch (p.kind) {
      case Piece::kWord:
        out.emplace_back(p.text);
        break;
      case Piece::kVar:
        out.push_back("v" + std::to_string(p.value));
        break;
      case Piece::kNumber:
        out.emplace_back(p.text == "0" || p.text == "1" ? p.text : "<num>");
        break;
      case Piece::kChar:
        out.emplace_back(1, static_cast<char>(p.value));
        break;
    }
    return true;
  });
  return out;
}

std::vector<int> encode_text(const Vocab& vocab, const std::string& text,
                             std::size_t max_len) {
  // A token's id depends only on the text before it, so the ids past
  // `max_len` need not be scanned at all.
  const std::size_t limit = max_len ? max_len : text.size();
  std::vector<int> ids;
  ids.reserve(std::min(limit, text.size()));
  if (limit == 0) return ids;
  const auto word = [&vocab](std::string_view low) {
    const auto it = vocab.index_.find(low);
    return it == vocab.index_.end() ? -1 : it->second;
  };
  scan_text(text, word, [&](const Piece& p) {
    switch (p.kind) {
      case Piece::kWord:
        ids.push_back(p.value >= 0 ? p.value : vocab.unk_id_);
        break;
      case Piece::kVar:
        ids.push_back(vocab.var_id_[static_cast<std::size_t>(p.value)]);
        break;
      case Piece::kNumber:
        ids.push_back(p.text == "0"   ? vocab.zero_id_
                      : p.text == "1" ? vocab.one_id_
                                      : vocab.num_id_);
        break;
      case Piece::kChar:
        ids.push_back(vocab.char_id_[static_cast<std::size_t>(p.value)]);
        break;
    }
    return ids.size() < limit;
  });
  return ids;
}

std::string bucket_token(double value, double lo, double hi) {
  const double v = std::max(value, 1e-12);
  const double l = std::log(std::max(lo, 1e-12));
  const double h = std::log(std::max(hi, lo * 2));
  double frac = (std::log(v) - l) / (h - l);
  frac = std::clamp(frac, 0.0, 0.999);
  const int bucket = static_cast<int>(frac * Vocab::kNumBuckets);
  return "b" + std::to_string(bucket);
}

}  // namespace nettag
