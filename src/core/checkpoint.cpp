// The checkpoint file (docs/ARCHITECTURE.md §8): one file, `<prefix>.ckpt`,
// written by one write_file_atomically call, so a reader sees one whole save.
// Layout, every integer little-endian (the host's order):
//
//   u64  header length, then "key value\n" lines: format and architecture
//   ExprLLM, then TAGFormer: u64 tensor count, then per tensor (params()
//        order) u32 rows, u32 cols and rows x cols f32
//   the trainer section, when present: the TrainState fields
//   u32  CRC-32 of every preceding byte
//
// The reader makes one pass: it checks every count against the bytes left
// before it allocates, the CRC before it returns, and every tensor shape
// before it writes a parameter, so a load succeeds fully or throws naming
// the file. It stages tensors one by one, as the model holds them: a freed
// whole-file buffer raised glibc's mmap threshold, and with it the serving
// daemon's peak RSS by 1.1 MB.
#include <algorithm>
#include <array>
#include <climits>
#include <fstream>
#include <stdexcept>

#include "core/nettag.hpp"
#include "model/graph.hpp"
#include "util/atomic_io.hpp"
#include "util/checksum.hpp"

namespace nettag {

namespace {

constexpr const char* kFormat = "nettag-ckpt-v2";
constexpr const char* kSections[2] = {"ExprLLM", "TAGFormer"};

template <typename T>
void put(std::string& buf, T value) {
  buf.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

void put_string(std::string& buf, const std::string& s) {
  put<std::uint64_t>(buf, s.size());
  buf += s;
}

void put_floats(std::string& buf, const std::vector<float>& v) {
  put<std::uint64_t>(buf, v.size());
  buf.append(reinterpret_cast<const char*>(v.data()),
             v.size() * sizeof(float));
}

void put_mat(std::string& buf, const Mat& m) {
  put<std::uint32_t>(buf, static_cast<std::uint32_t>(m.rows));
  put<std::uint32_t>(buf, static_cast<std::uint32_t>(m.cols));
  buf.append(reinterpret_cast<const char*>(m.v.data()),
             m.v.size() * sizeof(float));
}

void put_mats(std::string& buf, const std::vector<Mat>& mats) {
  put<std::uint64_t>(buf, mats.size());
  for (const Mat& m : mats) put_mat(buf, m);
}

std::string encode_trainer(const TrainState& st) {
  std::string buf;
  put_string(buf, st.phase);
  put<std::uint64_t>(buf, st.next_step);
  put_string(buf, st.rng_state);
  put<std::int64_t>(buf, st.adam_t);
  put_mats(buf, st.adam_m);
  put_mats(buf, st.adam_v);
  put_floats(buf, st.extra_params);
  put_floats(buf, st.loss_history);
  put_floats(buf, st.prior_losses);
  put<std::uint64_t>(buf, st.dataset_size);
  put<std::uint64_t>(buf, st.shard_index);
  return buf;
}

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("checkpoint " + path + ": " + what);
}

/// Sequential reader of a checkpoint file's bytes before its CRC. It folds
/// every byte it reads into a running CRC-32 and checks every count against
/// the bytes left, so a corrupt count can neither read past the end nor
/// size an allocation the file does not back.
class Reader {
 public:
  Reader(std::istream& in, std::uint64_t size, const std::string& path)
      : in_(in), left_(size), path_(path) {}

  std::uint64_t left() const { return left_; }
  std::uint32_t crc() const { return crc_; }

  void read(void* out, std::uint64_t n) {
    if (n > left_) fail(path_, "truncated, " + std::to_string(n - left_) +
                                   " bytes short");
    left_ -= n;
    char* to = static_cast<char*>(out);
    if (n > 0 && !in_.read(to, static_cast<std::streamsize>(n))) {
      fail(path_, "read failed");
    }
    crc_ = crc32(to, n, crc_);
  }

  /// Checksums the next `n` bytes without keeping them.
  void skip(std::uint64_t n) {
    char chunk[4096];
    for (std::uint64_t k = 0; n > 0; n -= k) {
      k = std::min<std::uint64_t>(n, sizeof(chunk));
      read(chunk, k);
    }
  }

  template <typename T>
  T get() {
    T value;
    read(&value, sizeof(value));
    return value;
  }

  /// A u64 count of items that take at least `item_bytes` each.
  std::uint64_t count(std::size_t item_bytes, const char* what) {
    const std::uint64_t n = get<std::uint64_t>();
    if (n > left_ / item_bytes) {
      fail(path_, std::string("implausible ") + what + " count " +
                      std::to_string(n) + " with " + std::to_string(left_) +
                      " bytes left");
    }
    return n;
  }

  std::string string(const char* what) {
    std::string s(count(1, what), '\0');
    read(s.data(), s.size());
    return s;
  }

  std::vector<float> floats(const char* what) {
    std::vector<float> v(count(sizeof(float), what));
    read(v.data(), v.size() * sizeof(float));
    return v;
  }

  /// A counted list of tensors, each u32 rows, u32 cols, then the values,
  /// which are only checksummed when `keep` is false.
  std::vector<Mat> mats(const char* what, bool keep = true) {
    const std::uint64_t n = count(2 * sizeof(std::uint32_t), what);
    std::vector<Mat> out;
    for (std::uint64_t k = 0; k < n; ++k) {
      const std::uint32_t rows = get<std::uint32_t>();
      const std::uint32_t cols = get<std::uint32_t>();
      const std::uint64_t cells = std::uint64_t{rows} * cols;
      if (rows > INT_MAX || cols > INT_MAX || cells > left_ / sizeof(float)) {
        fail(path_, std::string("implausible ") + what + " shape " +
                        std::to_string(rows) + "x" + std::to_string(cols) +
                        " with " + std::to_string(left_) + " bytes left");
      }
      if (!keep) {
        skip(cells * sizeof(float));
        continue;
      }
      out.emplace_back(static_cast<int>(rows), static_cast<int>(cols));
      read(out.back().v.data(), cells * sizeof(float));
    }
    return out;
  }

 private:
  std::istream& in_;
  std::uint64_t left_;
  std::uint32_t crc_ = 0;
  const std::string& path_;
};

/// The header's integer keys, in the order save_checkpoint writes them.
std::vector<std::pair<const char*, int*>> int_keys(NetTagConfig& c) {
  return {{"expr_d_model", &c.expr_llm.d_model},
          {"expr_num_layers", &c.expr_llm.num_layers},
          {"expr_num_heads", &c.expr_llm.num_heads},
          {"expr_d_ff", &c.expr_llm.d_ff},
          {"expr_max_len", &c.expr_llm.max_len},
          {"expr_out_dim", &c.expr_llm.out_dim},
          {"tag_d_model", &c.tag_d_model},
          {"tag_layers", &c.tag_layers},
          {"out_dim", &c.out_dim},
          {"k_hop", &c.k_hop}};
}

/// Parses the header's `key value` lines. Integers are parsed strictly and
/// capped at a bound no real configuration approaches, so a corrupt header
/// cannot describe a nonsensical model; keys it does not know are skipped,
/// so older binaries read newer headers.
NetTagConfig parse_header(const std::string& header, const std::string& path) {
  const KeyValues kv(header, "checkpoint " + path + " header");
  if (kv.get("format") != kFormat) {
    kv.fail("format", "unknown format '" + kv.get("format") + "'");
  }
  NetTagConfig c;
  for (const auto& [key, value] : int_keys(c)) {
    if (kv.has(key)) *value = static_cast<int>(kv.get_int(key, 1, 1 << 20));
  }
  if (kv.has("text_cache_entries")) {
    c.text_cache_entries =
        static_cast<std::size_t>(kv.get_int("text_cache_entries", 1, 1 << 20));
  }
  if (kv.has("use_text_attributes")) {
    c.use_text_attributes = kv.get_bool("use_text_attributes");
  }
  if (c.tag_d_model % TagFormer::kNumHeads != 0) {
    kv.fail("tag_d_model", "tag_d_model (" + std::to_string(c.tag_d_model) +
                               ") must be a multiple of TAGFormer's " +
                               std::to_string(TagFormer::kNumHeads) +
                               " attention heads");
  }
  if (c.expr_llm.d_model % c.expr_llm.num_heads != 0) {
    fail(path, "expr_num_heads (" + std::to_string(c.expr_llm.num_heads) +
                   ") must divide expr_d_model (" +
                   std::to_string(c.expr_llm.d_model) + ")");
  }
  return c;
}

/// The trainer section, its Adam moments only checksummed unless `keep`.
TrainState decode_trainer(Reader& r, const std::string& path, bool keep) {
  TrainState st;
  st.phase = r.string("phase byte");
  st.next_step = r.get<std::uint64_t>();
  st.rng_state = r.string("RNG state byte");
  st.adam_t = r.get<std::int64_t>();
  if (st.adam_t < 0) fail(path, "negative Adam step count");
  st.adam_m = r.mats("Adam moment", keep);
  st.adam_v = r.mats("Adam moment", keep);
  if (st.adam_m.size() != st.adam_v.size()) {
    fail(path, "Adam moment lists differ in length");
  }
  st.extra_params = r.floats("extra parameter");
  st.loss_history = r.floats("loss");
  st.prior_losses = r.floats("prior loss");
  st.dataset_size = r.get<std::uint64_t>();
  st.shard_index = r.get<std::uint64_t>();
  return st;
}

/// A checkpoint file whose size, structure and CRC have been checked.
struct CheckpointFile {
  std::string path;
  NetTagConfig config;
  std::vector<Mat> sections[2];  ///< empty unless the tensors were wanted
  bool has_trainer = false;
  TrainState trainer;  ///< set when present
};

/// Reads `<prefix>.ckpt`, keeping its tensors and its trainer section's
/// Adam moments only when asked to.
CheckpointFile read_checkpoint_file(const std::string& prefix, bool tensors,
                                    bool moments) {
  CheckpointFile f;
  f.path = prefix + ".ckpt";
  std::ifstream in(f.path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open checkpoint " + f.path);
  const std::streamoff size = in.tellg();
  if (size < static_cast<std::streamoff>(sizeof(std::uint32_t))) {
    fail(f.path, "truncated (" + std::to_string(size) + " bytes)");
  }
  in.seekg(0);
  Reader r(in, static_cast<std::uint64_t>(size) - sizeof(std::uint32_t),
           f.path);
  f.config = parse_header(r.string("header byte"), f.path);
  f.sections[0] = r.mats("ExprLLM tensor", tensors);
  f.sections[1] = r.mats("TAGFormer tensor", tensors);
  f.has_trainer = r.left() > 0;
  if (f.has_trainer) f.trainer = decode_trainer(r, f.path, moments);
  if (r.left() != 0) {
    fail(f.path, "trainer section has " + std::to_string(r.left()) +
                     " bytes after its fields");
  }
  std::uint32_t stored = 0;
  if (!in.read(reinterpret_cast<char*>(&stored), sizeof(stored)) ||
      stored != r.crc()) {
    fail(f.path, "checksum mismatch (truncated or corrupted)");
  }
  return f;
}

/// Parameters a model of configuration `c` holds per section, as the
/// TextEncoder and TagFormer constructors allocate them.
/// Checkpoint.LoadsEveryShippedConfiguration pins it against built models.
std::array<std::uint64_t, 2> param_counts(const NetTagConfig& c) {
  auto linear = [](std::uint64_t in, std::uint64_t out) {
    return in * out + out;
  };
  const std::uint64_t d = c.expr_llm.d_model;
  const std::uint64_t ff = c.expr_llm.d_ff;
  // A TransformerBlock: two LayerNorms, four attention Linears, two more.
  const std::uint64_t block =
      4 * d + 4 * linear(d, d) + linear(d, ff) + linear(ff, d);
  const std::uint64_t expr =
      (static_cast<std::uint64_t>(Vocab().size()) + c.expr_llm.max_len) * d +
      c.expr_llm.num_layers * block + 2 * d + linear(d, c.expr_llm.out_dim);
  // TAGFormer's input width, as NetTag::tag_in_dim.
  const std::uint64_t in = netlist_phys_feature_dim() +
                           (c.use_text_attributes ? c.expr_llm.out_dim
                                                  : netlist_base_feature_dim());
  const std::uint64_t t = c.tag_d_model;
  // A layer: four attention Linears, two LayerNorms, the GCN Linear.
  const std::uint64_t layer = 4 * linear(t, t) + 4 * t + linear(t, t);
  return {expr, in + linear(in, t) + c.tag_layers * layer +
                    linear(2 * t, c.out_dim)};
}

/// Moves the file's tensors into `model` once every shape matches, so a
/// mismatch leaves the model untouched.
void load_tensors(CheckpointFile& f, NetTag& model) {
  const std::vector<Tensor> params[2] = {model.expr_llm().params(),
                                         model.tagformer().params()};
  for (std::size_t s = 0; s < 2; ++s) {
    const std::vector<Mat>& mats = f.sections[s];
    if (mats.size() != params[s].size()) {
      fail(f.path, std::string(kSections[s]) + " holds " +
                       std::to_string(mats.size()) +
                       " tensors, the model has " +
                       std::to_string(params[s].size()));
    }
    for (std::size_t k = 0; k < mats.size(); ++k) {
      const Mat& m = params[s][k]->value;
      if (mats[k].rows != m.rows || mats[k].cols != m.cols) {
        fail(f.path, std::string(kSections[s]) + " tensor " +
                         std::to_string(k) + " is " +
                         std::to_string(mats[k].rows) + "x" +
                         std::to_string(mats[k].cols) + " in the file, " +
                         std::to_string(m.rows) + "x" + std::to_string(m.cols) +
                         " in the model");
      }
    }
  }
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t k = 0; k < params[s].size(); ++k) {
      params[s][k]->value = std::move(f.sections[s][k]);
    }
  }
  model.clear_text_cache();
}

}  // namespace

void save_checkpoint(const NetTag& model, const std::string& prefix,
                     const TrainState* trainer) {
  NetTagConfig c = model.config();
  std::string header = std::string("format ") + kFormat + "\n";
  for (const auto& [key, value] : int_keys(c)) {
    header += std::string(key) + " " + std::to_string(*value) + "\n";
  }
  header += std::string("use_text_attributes ") +
            (c.use_text_attributes ? "1" : "0") + "\ntext_cache_entries " +
            std::to_string(c.text_cache_entries) + "\n";

  std::string buf;
  put_string(buf, header);
  for (const std::vector<Tensor>& params :
       {model.expr_llm().params(), model.tagformer().params()}) {
    put<std::uint64_t>(buf, params.size());
    for (const Tensor& p : params) put_mat(buf, p->value);
  }
  if (trainer) buf += encode_trainer(*trainer);
  put<std::uint32_t>(buf, crc32(buf));

  write_file_atomically(prefix + ".ckpt", buf);
}

NetTagConfig read_checkpoint_config(const std::string& prefix) {
  return read_checkpoint_file(prefix, false, false).config;
}

std::unique_ptr<NetTag> load_checkpoint(const std::string& prefix) {
  CheckpointFile f = read_checkpoint_file(prefix, true, false);
  // The header must not size an allocation the file's tensors do not back.
  const std::array<std::uint64_t, 2> want = param_counts(f.config);
  for (std::size_t s = 0; s < 2; ++s) {
    std::uint64_t held = 0;
    for (const Mat& m : f.sections[s]) held += m.v.size();
    if (held != want[s]) {
      fail(f.path, "its header's configuration implies " +
                       std::to_string(want[s]) + " " + kSections[s] +
                       " parameters, its tensors hold " + std::to_string(held));
    }
  }
  // The seed only draws initial values, which the load overwrites.
  auto model = std::make_unique<NetTag>(f.config, /*seed=*/7);
  load_tensors(f, *model);
  return model;
}

TrainState load_train_checkpoint(NetTag& model, const std::string& prefix) {
  CheckpointFile f = read_checkpoint_file(prefix, true, true);
  if (!f.has_trainer) fail(f.path, "no trainer section to resume from");
  load_tensors(f, model);
  return std::move(f.trainer);
}

}  // namespace nettag
