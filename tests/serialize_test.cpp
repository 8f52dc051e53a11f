// Tests for the checkpoint file (core/checkpoint.cpp), the crash-safety
// contract of every persisted file (util/atomic_io.hpp, docs/ARCHITECTURE.md
// §8), text manifests and their `key value` parser, and the trainer section
// of a checkpoint.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/corpus_stream.hpp"
#include "core/nettag.hpp"
#include "core/pretrain.hpp"
#include "netlist/io.hpp"
#include "nn/train_state.hpp"
#include "util/atomic_io.hpp"
#include "util/checksum.hpp"

namespace nettag {
namespace {

namespace fs = std::filesystem;

/// The CRC-32 definition, one bit at a time.
std::uint32_t bitwise_crc32(const unsigned char* p, std::size_t n,
                            std::uint32_t crc) {
  std::uint32_t c = crc ^ 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

TEST(Checksum, Crc32MatchesBytewiseReference) {
  EXPECT_EQ(crc32(std::string("123456789")), 0xcbf43926u);  // the check value
  EXPECT_EQ(crc32(std::string()), 0u);
  Rng rng(0xc4c);
  std::vector<unsigned char> buf(64 + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.index(256));
  // Every length 0-64 at every alignment 0-7, so the 8-byte body and the
  // bytewise tail both run from every starting offset.
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      ASSERT_EQ(crc32(buf.data() + off, len),
                bitwise_crc32(buf.data() + off, len, 0))
          << "offset " << off << " length " << len;
      ASSERT_EQ(crc32(buf.data() + off, len, 0x1234abcdu),
                bitwise_crc32(buf.data() + off, len, 0x1234abcdu));
    }
  }
  // Chained calls equal one call over the concatenation at every split.
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    EXPECT_EQ(crc32(buf.data() + split, buf.size() - split,
                    crc32(buf.data(), split)),
              whole)
        << "split " << split;
  }
}

// --- helpers -----------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(static_cast<bool>(out)) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool file_exists(const std::string& path) {
  std::ifstream in(path);
  return static_cast<bool>(in);
}

/// A checkpoint prefix under the temp directory, unique to this process.
std::string temp_prefix(const std::string& name) {
  return (fs::temp_directory_path() /
          ("nettag_ckpt_" + name + "_" + std::to_string(::getpid())))
      .string();
}

NetTagConfig tiny_config() {
  NetTagConfig cfg;
  cfg.expr_llm = TextEncoderConfig::tiny();
  cfg.tag_d_model = 32;
  cfg.out_dim = 24;
  return cfg;
}

/// The smallest configuration the header accepts: every width 1, except
/// TAGFormer's, which its two attention heads must divide.
NetTagConfig minimal_config() {
  NetTagConfig cfg;
  cfg.expr_llm.d_model = 1;
  cfg.expr_llm.num_layers = 1;
  cfg.expr_llm.num_heads = 1;
  cfg.expr_llm.d_ff = 1;
  cfg.expr_llm.max_len = 1;
  cfg.expr_llm.out_dim = 1;
  cfg.tag_d_model = TagFormer::kNumHeads;
  cfg.tag_layers = 1;
  cfg.out_dim = 1;
  return cfg;
}

/// Every parameter value of `model`, ExprLLM then TAGFormer.
std::vector<float> model_values(const NetTag& model) {
  std::vector<float> out = flatten_param_values(model.expr_llm().params());
  const std::vector<float> tag =
      flatten_param_values(model.tagformer().params());
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

std::size_t value_count(const std::vector<Tensor>& params) {
  return flatten_param_values(params).size();
}

TrainState sample_train_state() {
  TrainState st;
  st.phase = "tag";
  st.next_step = 17;
  st.rng_state = "123 456 789";
  st.adam_t = 17;
  Mat m(2, 3), v(2, 3);
  for (std::size_t i = 0; i < m.v.size(); ++i) {
    m.v[i] = 0.25f * static_cast<float>(i);
    v.v[i] = -1.5f + static_cast<float>(i);
  }
  st.adam_m = {m};
  st.adam_v = {v};
  st.extra_params = {1.0f, -2.0f, 3.5f};
  st.loss_history = {9.0f, 8.5f, 8.0f};
  st.prior_losses = {4.0f, 3.0f};
  st.dataset_size = 120;
  st.shard_index = 5;
  return st;
}

/// `body` followed by its CRC-32: a file the reader's checksum accepts.
std::string sealed(std::string body) {
  const std::uint32_t crc = crc32(body);
  body.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return body;
}

std::uint64_t u64_at(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

std::string u64_bytes(std::uint64_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Offset of the header text: after its u64 length, which opens the file.
constexpr std::size_t kHeaderAt = 8;

/// `file` (a whole checkpoint) with its header replaced by `header` and
/// resealed: what a hand-edited header with a recomputed checksum looks like.
std::string with_header(const std::string& file, const std::string& header) {
  const std::size_t tensors_at = kHeaderAt + u64_at(file, 0);
  return sealed(u64_bytes(header.size()) + header +
                file.substr(tensors_at, file.size() - 4 - tensors_at));
}

/// `file` with its trainer section, the `old_size` bytes before the CRC,
/// replaced by `record` and resealed.
std::string with_trainer(const std::string& file, std::size_t old_size,
                         const std::string& record) {
  return sealed(file.substr(0, file.size() - 4 - old_size) + record);
}

std::string load_error(const std::function<void()>& load) {
  try {
    load();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

// --- the checkpoint file -----------------------------------------------------

TEST(Serialize, RoundTripPreservesValues) {
  const std::string prefix = temp_prefix("rt_values");
  const NetTag saved(tiny_config(), 1);
  save_checkpoint(saved, prefix);
  const std::unique_ptr<NetTag> loaded = load_checkpoint(prefix);
  // Another seed draws other values, so equality comes from the load.
  ASSERT_NE(model_values(NetTag(tiny_config(), 2)), model_values(saved));
  EXPECT_EQ(model_values(*loaded), model_values(saved));
  std::remove((prefix + ".ckpt").c_str());
}

TEST(Checkpoint, LoadsEveryShippedConfiguration) {
  // The parameter counts a header implies are computed, not read off a
  // built model: each shipped size tier, with and without text attributes,
  // must load (and so match the count) and keep its configuration.
  const std::string prefix = temp_prefix("configs");
  for (const TextEncoderConfig& expr :
       {TextEncoderConfig::tiny(), TextEncoderConfig::small(),
        TextEncoderConfig::base()}) {
    for (const bool text : {true, false}) {
      NetTagConfig cfg;
      cfg.expr_llm = expr;
      cfg.use_text_attributes = text;
      const NetTag saved(cfg, 3);
      save_checkpoint(saved, prefix);
      const std::unique_ptr<NetTag> loaded = load_checkpoint(prefix);
      EXPECT_EQ(model_values(*loaded), model_values(saved))
          << "d_model " << expr.d_model << " text " << text;
      const NetTagConfig& back = loaded->config();
      EXPECT_EQ(back.expr_llm.d_model, expr.d_model);
      EXPECT_EQ(back.expr_llm.num_layers, expr.num_layers);
      EXPECT_EQ(back.expr_llm.num_heads, expr.num_heads);
      EXPECT_EQ(back.expr_llm.d_ff, expr.d_ff);
      EXPECT_EQ(back.expr_llm.max_len, expr.max_len);
      EXPECT_EQ(back.expr_llm.out_dim, expr.out_dim);
      EXPECT_EQ(back.tag_d_model, cfg.tag_d_model);
      EXPECT_EQ(back.tag_layers, cfg.tag_layers);
      EXPECT_EQ(back.out_dim, cfg.out_dim);
      EXPECT_EQ(back.k_hop, cfg.k_hop);
      EXPECT_EQ(back.use_text_attributes, text);
      EXPECT_EQ(back.text_cache_entries, cfg.text_cache_entries);
    }
  }
  const NetTag minimal(minimal_config(), 3);
  save_checkpoint(minimal, prefix);
  EXPECT_EQ(model_values(*load_checkpoint(prefix)), model_values(minimal));
  std::remove((prefix + ".ckpt").c_str());
}

TEST(Serialize, ShapeMismatchRejected) {
  const std::string prefix = temp_prefix("shape");
  const TrainState st = sample_train_state();
  save_checkpoint(NetTag(tiny_config(), 1), prefix, &st);

  // Same tensor count, TAGFormer twice as wide: the error names the
  // section, the first differing tensor and both shapes.
  NetTagConfig wide = tiny_config();
  wide.tag_d_model = 64;
  NetTag target(wide, 2);
  const std::vector<float> before = model_values(target);
  const int in = target.tag_in_dim();
  std::string err = load_error([&] { load_train_checkpoint(target, prefix); });
  EXPECT_NE(err.find(prefix + ".ckpt"), std::string::npos) << err;
  EXPECT_NE(err.find("TAGFormer tensor 1 is " + std::to_string(in) +
                     "x32 in the file, " + std::to_string(in) +
                     "x64 in the model"),
            std::string::npos)
      << err;
  EXPECT_EQ(model_values(target), before);

  // Another ExprLLM depth: the tensor counts differ.
  NetTagConfig deep = tiny_config();
  deep.expr_llm.num_layers = 2;
  NetTag deeper(deep, 2);
  err = load_error([&] { load_train_checkpoint(deeper, prefix); });
  EXPECT_NE(err.find("ExprLLM holds " +
                     std::to_string(NetTag(tiny_config(), 1)
                                        .expr_llm()
                                        .params()
                                        .size()) +
                     " tensors, the model has " +
                     std::to_string(deeper.expr_llm().params().size())),
            std::string::npos)
      << err;
  std::remove((prefix + ".ckpt").c_str());
}

TEST(Serialize, CountMismatchRejected) {
  // A header edited to a larger ExprLLM, its checksum recomputed: the load
  // names both counts before it allocates a model of that header.
  const std::string prefix = temp_prefix("count");
  const NetTag saved(tiny_config(), 1);
  save_checkpoint(saved, prefix);
  const std::string bytes = read_file(prefix + ".ckpt");
  std::string header = bytes.substr(kHeaderAt, u64_at(bytes, 0));
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"expr_d_model 16\n",
                                            "expr_d_model 1024\n"},
        {"expr_d_ff 32\n", "expr_d_ff 4096\n"}}) {
    const std::size_t at = header.find(from);
    ASSERT_NE(at, std::string::npos) << header;
    header.replace(at, from.size(), to);
  }
  write_file(prefix + ".ckpt", with_header(bytes, header));
  EXPECT_EQ(read_checkpoint_config(prefix).expr_llm.d_model, 1024);
  const std::string err = load_error([&] { load_checkpoint(prefix); });
  EXPECT_NE(err.find(prefix + ".ckpt"), std::string::npos) << err;
  EXPECT_NE(err.find("ExprLLM parameters, its tensors hold " +
                     std::to_string(value_count(saved.expr_llm().params()))),
            std::string::npos)
      << err;
  std::remove((prefix + ".ckpt").c_str());
}

TEST(Serialize, MissingFileRejected) {
  const std::string prefix = "/tmp/definitely_missing_nettag";
  for (const std::string& err :
       {load_error([&] { load_checkpoint(prefix); }),
        load_error([&] { read_checkpoint_config(prefix); })}) {
    EXPECT_NE(err.find(prefix + ".ckpt"), std::string::npos) << err;
  }
}

TEST(Serialize, BadMagicRejected) {
  // A file that is not a checkpoint, with or without a valid CRC: its
  // opening bytes read as an implausible header length.
  const std::string prefix = temp_prefix("magic");
  for (const std::string& bytes :
       {std::string("not a model\n"), sealed("not a model\n")}) {
    write_file(prefix + ".ckpt", bytes);
    const std::string err = load_error([&] { load_checkpoint(prefix); });
    EXPECT_NE(err.find(prefix + ".ckpt: implausible header byte count"),
              std::string::npos)
        << err;
  }
  std::remove((prefix + ".ckpt").c_str());
}

// A crash can leave a file truncated at *any* byte. Simulate every one of
// them on a minimal-configuration training checkpoint: the resume read must
// throw naming the file, and the target model must be untouched — never a
// partially applied checkpoint.
TEST(Serialize, ParamsTruncatedAtEveryByteRejected) {
  const std::string prefix = temp_prefix("truncated");
  const std::string path = prefix + ".ckpt";
  const NetTag saved(minimal_config(), 11);
  const TrainState st = sample_train_state();
  save_checkpoint(saved, prefix, &st);
  const std::string bytes = read_file(path);

  NetTag target(minimal_config(), 12);  // different init than `saved`
  const std::vector<float> before = model_values(target);
  ASSERT_NE(before, model_values(saved));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_file(path, bytes.substr(0, len));
    const std::string err =
        load_error([&] { load_train_checkpoint(target, prefix); });
    ASSERT_NE(err.find(path), std::string::npos)
        << "truncated to " << len << " of " << bytes.size() << " bytes: "
        << err;
    ASSERT_EQ(model_values(target), before)
        << "partial state applied at truncation length " << len;
  }
  // The intact file still loads (the harness itself is not over-strict).
  write_file(path, bytes);
  EXPECT_EQ(load_train_checkpoint(target, prefix).next_step, st.next_step);
  EXPECT_EQ(model_values(target), model_values(saved));
  std::remove(path.c_str());
}

TEST(Serialize, ParamsTrailingGarbageRejected) {
  const std::string prefix = temp_prefix("trail");
  const std::string path = prefix + ".ckpt";
  save_checkpoint(NetTag(tiny_config(), 12), prefix);
  const std::string bytes = read_file(path);
  // One byte more, after the CRC or inside the sealed body: either way the
  // reader sees a trainer section too short to hold one.
  for (const std::string& padded :
       {bytes + '\0', sealed(bytes.substr(0, bytes.size() - 4) + '\0')}) {
    write_file(path, padded);
    const std::string err = load_error([&] { load_checkpoint(prefix); });
    EXPECT_NE(err.find(path + ": truncated"), std::string::npos) << err;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, FlippedByteRejectedNamingTheFile) {
  // One flipped byte anywhere — every byte up to the end of the header, and
  // seeded offsets across the tensors, the trainer section and the CRC —
  // must fail the load with an error that names the file.
  const std::string prefix = temp_prefix("flip");
  const std::string path = prefix + ".ckpt";
  const TrainState st = sample_train_state();
  save_checkpoint(NetTag(tiny_config(), 1), prefix, &st);
  const std::string bytes = read_file(path);
  std::vector<std::size_t> offsets;
  for (std::size_t at = 0; at < kHeaderAt + u64_at(bytes, 0); ++at) {
    offsets.push_back(at);
  }
  Rng rng(0xf11b);
  for (int i = 0; i < 256; ++i) offsets.push_back(rng.index(bytes.size()));
  offsets.push_back(bytes.size() - 1);
  for (const std::size_t at : offsets) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ (1 + rng.index(255)));
    write_file(path, flipped);
    const std::string err = load_error([&] { load_checkpoint(prefix); });
    ASSERT_NE(err.find(path), std::string::npos)
        << "flip at byte " << at << " of " << bytes.size() << ": " << err;
  }
  write_file(path, bytes);
  EXPECT_NO_THROW(load_checkpoint(prefix));
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadRacingSavesReadsOneWholeSave) {
  // A serve `reload` may read the prefix while a trainer saves onto it. One
  // rename commits a save, so every load sees one whole save: one of the
  // two models' weights, never a mix and never a torn file.
  const std::string prefix = temp_prefix("race");
  const NetTag a(tiny_config(), 1);
  const NetTag b(tiny_config(), 2);
  const std::set<std::uint32_t> whole = {params_fingerprint(a),
                                         params_fingerprint(b)};
  ASSERT_EQ(whole.size(), 2u);
  save_checkpoint(a, prefix);
  std::thread saver([&] {
    for (int i = 0; i < 40; ++i) save_checkpoint(i % 2 ? a : b, prefix);
  });
  for (int i = 0; i < 40; ++i) {
    std::string err;
    std::uint32_t fingerprint = 0;
    try {
      fingerprint = params_fingerprint(*load_checkpoint(prefix));
    } catch (const std::exception& e) {
      err = e.what();
    }
    EXPECT_EQ(err, "") << "load " << i;
    EXPECT_EQ(whole.count(fingerprint), 1u) << "load " << i;
  }
  saver.join();
  std::remove((prefix + ".ckpt").c_str());
}

TEST(Checkpoint, ModelOnlyCheckpointCannotResume) {
  const std::string prefix = temp_prefix("model_only");
  save_checkpoint(NetTag(tiny_config(), 1), prefix);
  NetTag target(tiny_config(), 2);
  const std::vector<float> before = model_values(target);
  const std::string err =
      load_error([&] { load_train_checkpoint(target, prefix); });
  EXPECT_NE(err.find("no trainer section"), std::string::npos) << err;
  EXPECT_EQ(model_values(target), before);
  std::remove((prefix + ".ckpt").c_str());
}

TEST(Serialize, WritersLeaveNoTempFileBehind) {
  const fs::path dir = temp_prefix("notmp");
  fs::remove_all(dir);
  fs::create_directories(dir);
  save_checkpoint(NetTag(tiny_config(), 13), (dir / "m").string());
  save_manifest((dir / "m.run").string(), {{"format", "x"}});
  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  EXPECT_EQ(names, (std::set<std::string>{"m.ckpt", "m.run"}));
  fs::remove_all(dir);
}

/// Every entry of `entries` is in the manifest at `path`, with its value.
void expect_manifest(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& entries) {
  const KeyValues kv = load_manifest(path, path);
  for (const auto& [key, value] : entries) EXPECT_EQ(kv.get(key), value) << key;
}

TEST(Serialize, ManifestRoundTrip) {
  const std::vector<std::pair<std::string, std::string>> entries = {
      {"format", "3"},
      {"out_dim", "48"},
      {"note", "spaces are fine in values"},
  };
  save_manifest("/tmp/nettag_manifest_test.run", entries);
  expect_manifest("/tmp/nettag_manifest_test.run", entries);
  std::remove("/tmp/nettag_manifest_test.run");

  EXPECT_THROW(load_manifest("/tmp/definitely_missing_manifest.run", "m"),
               std::runtime_error);
  EXPECT_THROW(save_manifest("/tmp/nettag_manifest_bad.run",
                             {{"bad key", "value"}}),
               std::runtime_error);
}

TEST(KeyValues, RepeatedKeyRejectedNamingBothLines) {
  try {
    KeyValues("format 3\nseed 1\nseed 2\n", "run /x.run");
    ADD_FAILURE() << "a repeated key was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "run /x.run: line 3: duplicate key 'seed' (first on line 2)");
  }
}

TEST(KeyValues, EveryErrorNamesSourceLineAndKey) {
  const KeyValues kv("seed 7x\nsteps 300\nflag 2\n", "run /x.run");
  auto error = [](auto read) {
    try {
      read();
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(error([&] { kv.get_u64("seed"); }),
            "run /x.run: line 1: key 'seed': expected an unsigned integer, "
            "got '7x'");
  EXPECT_EQ(error([&] { kv.get_int("steps", 0, 100); }),
            "run /x.run: line 2: key 'steps': '300' is out of range [0, 100]");
  EXPECT_EQ(error([&] { kv.get_bool("flag"); }),
            "run /x.run: line 3: key 'flag': expected 0 or 1, got '2'");
  EXPECT_EQ(error([&] { kv.get("absent"); }),
            "run /x.run: missing key 'absent'");
  EXPECT_EQ(kv.get_int("steps", 0, 1000), 300);
  // Blank lines and keys without a value are not pairs.
  for (const char* text : {"a 1\n\nb 2\n", "a 1\n#note\n", "a 1\nb\n",
                           "a 1\nb \n", "a 1\n c\n"}) {
    EXPECT_NE(error([&] { KeyValues(text, "f"); }).find("f: line 2: "),
              std::string::npos)
        << text;
  }
}

TEST(Serialize, CheckpointRoundTripBitIdentical) {
  // Pre-train briefly, checkpoint, reload into a *fresh* model, and require
  // bit-identical embeddings — the serving daemon's correctness rests on
  // this.
  Rng rng(0xc0ffee);
  CorpusOptions co;
  co.designs_per_family = 1;
  co.with_physical = false;
  const Corpus corpus = build_corpus(co, rng);

  NetTagConfig mc;
  mc.expr_llm = TextEncoderConfig::tiny();
  mc.tag_d_model = 32;
  mc.out_dim = 24;
  NetTag model(mc, 5);
  PretrainOptions po;
  po.expr_steps = 6;
  po.tag_steps = 5;
  po.aux_steps = 0;
  po.max_expressions = 120;
  po.max_cones = 12;
  po.objective_align = false;
  pretrain(model, corpus, po, rng);

  const std::string prefix = "/tmp/nettag_ckpt_rt";
  save_checkpoint(model, prefix);

  const NetTagConfig readback = read_checkpoint_config(prefix);
  EXPECT_EQ(readback.out_dim, mc.out_dim);
  EXPECT_EQ(readback.tag_d_model, mc.tag_d_model);
  EXPECT_EQ(readback.expr_llm.d_model, mc.expr_llm.d_model);

  const std::unique_ptr<NetTag> loaded = load_checkpoint(prefix);
  const Netlist nl = netlist_from_string(
      "module m source synthetic\nport a\nport b\n"
      "gate AND2 g1 a b\ngate INV g2 g1 out\nendmodule\n");
  const NetTag::ConeEmbedding want = model.embed(nl);
  const NetTag::ConeEmbedding got = loaded->embed(nl);
  ASSERT_EQ(want.nodes.v.size(), got.nodes.v.size());
  for (std::size_t i = 0; i < want.nodes.v.size(); ++i) {
    ASSERT_EQ(want.nodes.v[i], got.nodes.v[i]) << "node lane " << i;
  }
  for (std::size_t i = 0; i < want.cls.v.size(); ++i) {
    ASSERT_EQ(want.cls.v[i], got.cls.v[i]) << "cls lane " << i;
  }

  const Netlist seq = netlist_from_string(
      "module s source synthetic\nport d\nreg q\n"
      "gate AND2 g1 d q out\ndrive q g1\nendmodule\n");
  const Mat want_c = model.embed_circuit(seq);
  const Mat got_c = loaded->embed_circuit(seq);
  ASSERT_EQ(want_c.v.size(), got_c.v.size());
  for (std::size_t i = 0; i < want_c.v.size(); ++i) {
    ASSERT_EQ(want_c.v[i], got_c.v[i]) << "circuit lane " << i;
  }
  std::remove((prefix + ".ckpt").c_str());
}

// --- crash-safety contract ---------------------------------------------------

/// The names in `dir` that hold ".tmp.".
std::vector<std::string> temp_files(const fs::path& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) out.push_back(name);
  }
  return out;
}

TEST(AtomicWrite, TwoThreadsWritingOnePathLeaveOneWholePayload) {
  // Each thread's temp file is its own, so whichever rename lands last, the
  // path holds one whole payload and no temp file is left.
  const fs::path dir = temp_prefix("atomic_threads");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "f.bin").string();
  const std::string payload_a(1 << 16, 'A');
  const std::string payload_b(3 << 15, 'B');
  auto writer = [&path](const std::string& payload) {
    for (int k = 0; k < 50; ++k) write_file_atomically(path, payload);
  };
  std::thread a(writer, payload_a);
  std::thread b(writer, payload_b);
  a.join();
  b.join();
  const std::string got = read_file(path);
  EXPECT_TRUE(got == payload_a || got == payload_b) << got.size() << " bytes";
  EXPECT_EQ(temp_files(dir), std::vector<std::string>{});
  fs::remove_all(dir);
}

TEST(AtomicWrite, FailingRenameLeavesPathUntouchedAndNoTempFile) {
  // A non-empty directory at the final path: the temp file is written and
  // synced, then the rename onto the directory fails.
  const fs::path dir = temp_prefix("atomic_rename");
  fs::remove_all(dir);
  const fs::path path = dir / "f.bin";
  fs::create_directories(path);
  write_file((path / "kept").string(), "previous");
  try {
    write_file_atomically(path.string(), "new bytes");
    ADD_FAILURE() << "the rename onto a directory succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rename"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(fs::is_directory(path));
  EXPECT_EQ(read_file((path / "kept").string()), "previous");
  EXPECT_EQ(temp_files(dir), std::vector<std::string>{});
  fs::remove_all(dir);
}

/// A pid that no process holds: a child's, once it has exited and been
/// reaped.
pid_t dead_pid() {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(0);
  ::waitpid(pid, nullptr, 0);
  return pid;
}

TEST(AtomicWrite, NextWriteRemovesOnlyDeadWritersTemps) {
  // Temps beside a checkpoint, a `.run` manifest, a corpus shard and a
  // corpus manifest: one named with a reaped child's pid, one with this
  // process's and one with its parent's, which is alive. The next write of
  // each path removes the first alone.
  const fs::path dir = temp_prefix("atomic_sweep");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string prefix = (dir / "m").string();
  const std::string corpus = (dir / "corpus").string();
  fs::create_directories(corpus);
  const std::string dead = std::to_string(dead_pid());
  std::vector<std::string> dead_tmps, kept;
  for (const std::string path :
       {prefix + ".ckpt", prefix + ".run", corpus + "/shard_00000.nls",
        corpus + "/corpus.manifest"}) {
    dead_tmps.push_back(path + ".tmp." + dead + ".0");
    kept.push_back(path + ".tmp." + std::to_string(::getpid()) + ".999999");
    kept.push_back(path + ".tmp." + std::to_string(::getppid()) + ".0");
    // Not temps of `path`: a name that is no pid, and another path's.
    kept.push_back(path + ".tmp.x" + dead + ".0");
    kept.push_back(path + "2.tmp." + dead + ".0");
  }
  for (const std::string& f : dead_tmps) write_file(f, "stale");
  for (const std::string& f : kept) write_file(f, "stale");

  save_checkpoint(NetTag(tiny_config(), 13), prefix);
  save_manifest(prefix + ".run", {{"format", "3"}});
  StreamOptions so;
  so.designs_per_family = 1;
  so.designs_per_shard = 2;
  so.hierarchical = false;
  so.corpus.with_physical = false;
  build_corpus_stream(corpus, so, 0x51);

  for (const std::string& f : dead_tmps) EXPECT_FALSE(file_exists(f)) << f;
  for (const std::string& f : kept) EXPECT_TRUE(file_exists(f)) << f;
  fs::remove_all(dir);
}

TEST(Serialize, ManifestTruncationAndCorruptionRejected) {
  const std::string path = "/tmp/nettag_man_crash.run";
  const std::vector<std::pair<std::string, std::string>> entries = {
      {"format", "3"}, {"out_dim", "48"}};
  save_manifest(path, entries);
  const std::string bytes = read_file(path);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_file(path, bytes.substr(0, len));
    // The contract is all-or-nothing: a truncated manifest either throws or
    // (when the lost bytes carried no data — the final newline) parses to
    // exactly the full entry set. Never a partial/altered one.
    std::optional<KeyValues> kv;
    try {
      kv.emplace(load_manifest(path, path));
    } catch (const std::runtime_error&) {
      continue;
    }
    for (const auto& [key, value] : entries) {
      ASSERT_TRUE(kv->has(key))
          << "partial parse at truncation length " << len << ": no " << key;
      EXPECT_EQ(kv->get(key), value)
          << "partial parse at truncation length " << len;
    }
  }
  // One flipped byte anywhere (body or checksum line) must be caught.
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string corrupt = bytes;
    corrupt[at] ^= 0x20;  // keeps printability; changes the byte
    if (corrupt[at] == '\n' || bytes[at] == '\n') continue;  // layout change
    write_file(path, corrupt);
    EXPECT_THROW(load_manifest(path, path), std::runtime_error)
        << "flip at byte " << at << " undetected";
  }
  write_file(path, bytes);
  expect_manifest(path, entries);
  std::remove(path.c_str());
}

// --- the trainer section -----------------------------------------------------

TEST(TrainState, RoundTripPreservesEveryField) {
  const std::string prefix = temp_prefix("trainer_rt");
  const TrainState st = sample_train_state();
  save_checkpoint(NetTag(tiny_config(), 1), prefix, &st);
  NetTag target(tiny_config(), 2);
  const TrainState back = load_train_checkpoint(target, prefix);
  EXPECT_EQ(back.phase, st.phase);
  EXPECT_EQ(back.next_step, st.next_step);
  EXPECT_EQ(back.rng_state, st.rng_state);
  EXPECT_EQ(back.adam_t, st.adam_t);
  ASSERT_EQ(back.adam_m.size(), 1u);
  EXPECT_EQ(back.adam_m[0].v, st.adam_m[0].v);
  EXPECT_EQ(back.adam_m[0].rows, st.adam_m[0].rows);
  EXPECT_EQ(back.adam_v[0].v, st.adam_v[0].v);
  EXPECT_EQ(back.extra_params, st.extra_params);
  EXPECT_EQ(back.loss_history, st.loss_history);
  EXPECT_EQ(back.prior_losses, st.prior_losses);
  EXPECT_EQ(back.dataset_size, st.dataset_size);
  EXPECT_EQ(back.shard_index, st.shard_index);
  std::remove((prefix + ".ckpt").c_str());
}

TEST(TrainState, TruncationAtEveryByteRejected) {
  // The trainer section cut short at every byte, or one byte too long, with
  // the CRC made to agree: its own field lengths catch it, and the target
  // model stays untouched.
  const std::string prefix = temp_prefix("trainer_cut");
  const std::string path = prefix + ".ckpt";
  const TrainState st = sample_train_state();
  const NetTag saved(minimal_config(), 1);
  save_checkpoint(saved, prefix);
  const std::size_t model_only = read_file(path).size();
  save_checkpoint(saved, prefix, &st);
  const std::string bytes = read_file(path);
  const std::size_t record_size = bytes.size() - model_only;
  const std::string record = bytes.substr(bytes.size() - 4 - record_size,
                                          record_size);
  ASSERT_EQ(with_trainer(bytes, record_size, record), bytes);

  NetTag target(minimal_config(), 2);
  const std::vector<float> before = model_values(target);
  for (std::size_t len = 1; len < record.size(); ++len) {
    write_file(path, with_trainer(bytes, record_size, record.substr(0, len)));
    const std::string err =
        load_error([&] { load_train_checkpoint(target, prefix); });
    ASSERT_NE(err.find(path), std::string::npos)
        << "trainer section cut to " << len << " of " << record.size()
        << " bytes: " << err;
    ASSERT_EQ(model_values(target), before) << "cut to " << len;
  }
  write_file(path, with_trainer(bytes, record_size, record + 'x'));
  EXPECT_NE(load_error([&] { load_train_checkpoint(target, prefix); })
                .find("1 bytes after its fields"),
            std::string::npos);
  EXPECT_EQ(model_values(target), before);
  write_file(path, bytes);
  EXPECT_EQ(load_train_checkpoint(target, prefix).phase, "tag");
  std::remove(path.c_str());
}

// --- header validation -------------------------------------------------------

/// A tiny model's checkpoint under `prefix` with its header replaced.
void save_with_header(const std::string& prefix, const std::string& header) {
  save_checkpoint(NetTag(tiny_config(), 1), prefix);
  write_file(prefix + ".ckpt", with_header(read_file(prefix + ".ckpt"), header));
}

std::string config_error(const std::string& prefix) {
  return load_error([&] { read_checkpoint_config(prefix); });
}

TEST(Serialize, CheckpointBadFormatRejected) {
  const std::string prefix = temp_prefix("badfmt");
  save_with_header(prefix, "format nettag-ckpt-v999\n");
  EXPECT_NE(config_error(prefix).find("unknown format 'nettag-ckpt-v999'"),
            std::string::npos);
  // A text manifest, as checkpoints were once written, is not a checkpoint.
  save_manifest(prefix + ".ckpt", {{"format", "nettag-ckpt-v1"}});
  EXPECT_NE(config_error(prefix).find("implausible header byte count"),
            std::string::npos);
  std::remove((prefix + ".ckpt").c_str());
}

TEST(Serialize, CheckpointConfigRejectsDuplicateKeysWithLines) {
  const std::string prefix = temp_prefix("dup");
  save_with_header(prefix, "format nettag-ckpt-v2\nout_dim 48\nout_dim 64\n");
  const std::string err = config_error(prefix);
  EXPECT_NE(err.find("duplicate key 'out_dim'"), std::string::npos) << err;
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;   // the duplicate
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;   // the original
  std::remove((prefix + ".ckpt").c_str());
}

TEST(Serialize, CheckpointConfigRejectsBadIntegers) {
  const std::string prefix = temp_prefix("badint");
  for (const char* bad : {"banana", "0", "-3", "12junk", "99999999999"}) {
    save_with_header(prefix, std::string("format nettag-ckpt-v2\ntag_layers ") +
                                 bad + "\n");
    const std::string err = config_error(prefix);
    EXPECT_NE(err.find("tag_layers"), std::string::npos)
        << "value '" << bad << "': " << err;
    EXPECT_FALSE(err.empty()) << "value '" << bad << "' accepted";
  }
  std::remove((prefix + ".ckpt").c_str());
}

TEST(Serialize, CheckpointConfigRejectsIndivisibleHeads) {
  const std::string prefix = temp_prefix("heads");
  save_with_header(prefix,
                   "format nettag-ckpt-v2\nexpr_d_model 10\nexpr_num_heads 4\n");
  const std::string err = config_error(prefix);
  EXPECT_NE(err.find("must divide"), std::string::npos) << err;
  std::remove((prefix + ".ckpt").c_str());
}

TEST(Serialize, CheckpointConfigRejectsIndivisibleTagWidth) {
  // TAGFormer splits tag_d_model over its fixed head count; an odd width
  // used to load and then fail every embed with a matmul shape error.
  const std::string prefix = temp_prefix("tag_heads");
  save_with_header(prefix, "format nettag-ckpt-v2\ntag_d_model 63\n");
  const std::string err = config_error(prefix);
  EXPECT_NE(err.find("tag_d_model (63)"), std::string::npos) << err;
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_THROW(load_checkpoint(prefix), std::runtime_error);
  save_with_header(prefix, "format nettag-ckpt-v2\ntag_d_model 62\n");
  EXPECT_EQ(read_checkpoint_config(prefix).tag_d_model, 62);
  std::remove((prefix + ".ckpt").c_str());
}

TEST(Serialize, CheckpointConfigRejectsBadBoolean) {
  const std::string prefix = temp_prefix("bool");
  save_with_header(prefix,
                   "format nettag-ckpt-v2\nuse_text_attributes yes\n");
  const std::string err = config_error(prefix);
  EXPECT_NE(err.find("use_text_attributes"), std::string::npos) << err;
  std::remove((prefix + ".ckpt").c_str());
}

}  // namespace
}  // namespace nettag
