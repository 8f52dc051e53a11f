// The value-only inference path against the autograd forward it stands in
// for on every embed: TagFormer::infer vs TagFormer::forward (through
// NetTag::forward_features) and TextEncoder::infer_ids vs encode_ids must
// agree byte for byte under both SIMD backends, at pool widths 1 and 4, and
// when called from inside a pool task. In deep-check mode a non-finite
// weight must fail infer with the message the autograd forward gives.
// Across backends the two encoders' outputs may drift only within the
// end-to-end budget of docs/PERFORMANCE.md §2.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/check.hpp"
#include "core/nettag.hpp"
#include "core/tag.hpp"
#include "model/graph.hpp"
#include "model/text_encoder.hpp"
#include "netlist/cone.hpp"
#include "nn/gemm.hpp"
#include "rtlgen/generator.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "width_guard.hpp"

namespace nettag {
namespace {

std::vector<std::uint32_t> bits(const Mat& m) {
  std::vector<std::uint32_t> out(m.v.size());
  if (!out.empty()) std::memcpy(out.data(), m.v.data(), out.size() * 4);
  return out;
}

/// Forces one SIMD backend for a scope; ok() is false on a CPU without it.
class BackendGuard {
 public:
  explicit BackendGuard(SimdBackend backend)
      : prev_(simd_backend()), ok_(set_simd_backend(backend)) {}
  ~BackendGuard() { set_simd_backend(prev_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
  bool ok() const { return ok_; }

 private:
  SimdBackend prev_;
  bool ok_;
};

struct DeepChecksGuard {
  DeepChecksGuard() { set_deep_checks(true); }
  ~DeepChecksGuard() { set_deep_checks(false); }
  DeepChecksGuard(const DeepChecksGuard&) = delete;
  DeepChecksGuard& operator=(const DeepChecksGuard&) = delete;
};

/// Runs `check(mode)` under the scalar and (where the CPU has it) the AVX2
/// backend, at pool widths 1 and 4, on the test thread and from inside two
/// pool tasks at once. `check` compares one path against the other under
/// the mode it runs in.
void for_each_mode(const std::function<void(const std::string&)>& check) {
  for (const SimdBackend backend : {SimdBackend::kScalar, SimdBackend::kAvx2}) {
    const BackendGuard guard(backend);
    if (!guard.ok()) continue;
    for (const int width : {1, 4}) {
      const WidthGuard width_guard(width);
      const std::string mode = std::string(simd_backend_name(backend)) +
                               " width " + std::to_string(width);
      check(mode);
      ThreadPool::instance().run_indexed(2, [&](std::size_t task) {
        check(mode + " in task " + std::to_string(task));
      });
    }
  }
}

NetTagConfig tiny_model_config() {
  NetTagConfig cfg;
  cfg.expr_llm = TextEncoderConfig::tiny();
  return cfg;
}

/// One TAGFormer input: features and edges of a netlist's TAG.
struct ConeInput {
  std::string name;
  Mat feats;
  std::vector<std::pair<int, int>> edges;
};

ConeInput cone_input(const NetTag& model, const Netlist& nl,
                     const std::string& name) {
  const TagGraph tag = build_tag(nl, model.config().k_hop);
  return {name, model.input_features(tag, Mat()), tag.edges};
}

/// `n` gates, none connected: a TAG whose only edges are the CLS node's.
Netlist loose_ports(int n) {
  Netlist nl("loose");
  for (int i = 0; i < n; ++i) nl.add_port("P" + std::to_string(i));
  return nl;
}

/// A 120-gate register cone: two ports, a 117-gate chain, one register.
Netlist chain_cone_120() {
  Netlist nl("chain");
  const GateId a = nl.add_port("A");
  const GateId b = nl.add_port("B");
  GateId prev = a;
  const CellType kinds[] = {CellType::kAnd2, CellType::kXor2, CellType::kNor2};
  for (int i = 0; i < 117; ++i) {
    prev = nl.add_gate(kinds[i % 3], "U" + std::to_string(i), {prev, b});
  }
  const GateId r = nl.add_register("R");
  nl.connect_register(r, prev);
  nl.mark_output(r);
  return nl;
}

void expect_tagformer_paths_agree(const NetTag& model,
                                  const std::vector<ConeInput>& inputs) {
  for_each_mode([&](const std::string& mode) {
    for (const ConeInput& in : inputs) {
      const TagFormer::Output ref = model.forward_features(in.feats, in.edges);
      const TagFormer::Embeddings got = model.tagformer().infer(
          in.feats, tag_adjacency(in.feats.rows, in.edges));
      EXPECT_EQ(bits(ref.nodes->value), bits(got.nodes))
          << in.name << " nodes, " << mode;
      EXPECT_EQ(bits(ref.cls->value), bits(got.cls))
          << in.name << " cls, " << mode;
    }
  });
}

/// Every register cone of the eight generated designs the suite embeds.
std::vector<ConeInput> generated_cone_inputs(const NetTag& model) {
  std::vector<ConeInput> inputs;
  for (int d = 0; d < 8; ++d) {
    Rng rng(300 + static_cast<std::uint64_t>(d));
    const FamilyProfile& family =
        benchmark_families()[static_cast<std::size_t>(d) %
                             benchmark_families().size()];
    const Netlist nl =
        generate_design(family, rng, "inf" + std::to_string(d)).netlist;
    for (const RegisterCone& rc : extract_register_cones(nl, 120)) {
      inputs.push_back(cone_input(model, rc.cone,
                                  "design " + std::to_string(d) + " reg " +
                                      std::to_string(rc.register_id)));
    }
  }
  return inputs;
}

TEST(InferenceForward, TagFormerMatchesForwardOnGeneratedCones) {
  const NetTag model(tiny_model_config(), 17);
  const std::vector<ConeInput> inputs = generated_cone_inputs(model);
  ASSERT_GE(inputs.size(), 16u);
  expect_tagformer_paths_agree(model, inputs);
}

TEST(InferenceForward, TagFormerMatchesForwardOnEdgeCaseCones) {
  const NetTag model(tiny_model_config(), 18);
  const Netlist chain = chain_cone_120();
  ASSERT_EQ(chain.size(), 120u);
  std::vector<ConeInput> inputs = {
      cone_input(model, loose_ports(1), "1-gate netlist"),
      cone_input(model, loose_ports(5), "cone with no edges"),
      cone_input(model, chain, "120-gate cone"),
  };
  EXPECT_TRUE(inputs[1].edges.empty());
  expect_tagformer_paths_agree(model, inputs);
}

TEST(InferenceForward, TextEncoderMatchesEncodeIdsOnEveryTier) {
  const Vocab vocab;
  const std::pair<const char*, TextEncoderConfig> tiers[] = {
      {"tiny", TextEncoderConfig::tiny()},
      {"small", TextEncoderConfig::small()},
      {"base", TextEncoderConfig::base()},
  };
  for (const auto& [tier, cfg] : tiers) {
    Rng rng(41);
    const TextEncoder enc(vocab, cfg, rng);
    std::vector<std::vector<int>> id_lists;
    for (const int len : {0, 1, cfg.max_len, cfg.max_len + 5}) {
      std::vector<int> ids;
      for (int i = 0; i < len; ++i) ids.push_back(rng.uniform_int(0, vocab.size() - 1));
      id_lists.push_back(std::move(ids));
    }
    for_each_mode([&](const std::string& mode) {
      for (const std::vector<int>& ids : id_lists) {
        const Tensor ref = enc.encode_ids(ids);
        const Mat got = enc.infer_ids(ids);
        EXPECT_EQ(bits(ref->value), bits(got))
            << tier << ", " << ids.size() << " ids, " << mode;
      }
    });
  }
}

/// The run of `fn` under the scalar backend and under AVX2.
template <typename Fn>
auto scalar_and_avx2(Fn&& fn) {
  decltype(fn()) scalar;
  {
    const BackendGuard guard(SimdBackend::kScalar);
    scalar = fn();
  }
  const BackendGuard guard(SimdBackend::kAvx2);
  return std::make_pair(std::move(scalar), fn());
}

/// The end-to-end budget: max |avx2 - scalar| <= 1e-4 * max(1, max |scalar|).
void expect_within_e2e_budget(const Mat& scalar, const Mat& avx2,
                              const std::string& what) {
  ASSERT_EQ(scalar.v.size(), avx2.v.size()) << what;
  float peak = 1.f, drift = 0.f;
  for (std::size_t i = 0; i < scalar.v.size(); ++i) {
    peak = std::max(peak, std::fabs(scalar.v[i]));
    drift = std::max(drift, std::fabs(avx2.v[i] - scalar.v[i]));
  }
  EXPECT_LE(drift, 1e-4f * peak) << what << " (max |scalar| " << peak << ")";
}

TEST(InferenceForward, Avx2DriftWithinBudget) {
  if (!simd_avx2_supported()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  const NetTag model(tiny_model_config(), 17);
  // One set of input features for both backends: only TAGFormer differs.
  const std::vector<ConeInput> inputs = generated_cone_inputs(model);
  ASSERT_GE(inputs.size(), 16u);
  for (const ConeInput& in : inputs) {
    const Mat adj = tag_adjacency(in.feats.rows, in.edges);
    const auto [scalar, avx2] =
        scalar_and_avx2([&] { return model.tagformer().infer(in.feats, adj); });
    expect_within_e2e_budget(scalar.nodes, avx2.nodes, in.name + " nodes");
    expect_within_e2e_budget(scalar.cls, avx2.cls, in.name + " cls");
  }
  const Vocab vocab;
  const std::pair<const char*, TextEncoderConfig> tiers[] = {
      {"tiny", TextEncoderConfig::tiny()},
      {"small", TextEncoderConfig::small()},
      {"base", TextEncoderConfig::base()},
  };
  for (const auto& [tier, cfg] : tiers) {
    Rng rng(41);
    const TextEncoder enc(vocab, cfg, rng);
    for (const int len : {1, cfg.max_len / 2, cfg.max_len}) {
      std::vector<int> ids;
      for (int i = 0; i < len; ++i) ids.push_back(rng.uniform_int(0, vocab.size() - 1));
      const auto [scalar, avx2] = scalar_and_avx2([&] { return enc.infer_ids(ids); });
      expect_within_e2e_budget(scalar, avx2,
                               std::string(tier) + ", " + std::to_string(len) + " ids");
    }
  }
}

TEST(InferenceForward, TextEncoderRejectsIdOutsideVocab) {
  const Vocab vocab;
  Rng rng(42);
  const TextEncoder enc(vocab, TextEncoderConfig::tiny(), rng);
  EXPECT_THROW(enc.infer_ids({1, vocab.size()}), CheckError);
  EXPECT_THROW(enc.infer_ids({-1}), CheckError);
}

TEST(InferenceForward, TagFormerRejectsMisshapenInputs) {
  const NetTag model(tiny_model_config(), 19);
  const TagFormer& tf = model.tagformer();
  const Mat adj = tag_adjacency(3, {{0, 1}});
  EXPECT_THROW(tf.infer(Mat(3, model.tag_in_dim() + 1), adj), CheckError);
  EXPECT_THROW(tf.infer(Mat(3, model.tag_in_dim()), tag_adjacency(4, {})),
               CheckError);
  EXPECT_THROW(tf.infer(Mat(3, model.tag_in_dim()), Mat(4, 3)), CheckError);
}

/// The message `fn` throws as a CheckError, or "" when it returns.
std::string check_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(InferenceForward, DeepChecksNameTheOpOfAPlantedNaN) {
  const DeepChecksGuard deep;
  const NetTag model(tiny_model_config(), 20);
  const ConeInput in = cone_input(model, chain_cone_120(), "chain");
  const Mat adj = tag_adjacency(in.feats.rows, in.edges);
  const std::vector<Tensor> params = model.tagformer().params();
  // params()[0] is the CLS input row (read by concat_rows), [1] the input
  // projection's weight (read by matmul).
  const std::pair<std::size_t, const char*> planted[] = {{0, "concat_rows"},
                                                          {1, "matmul"}};
  for (const auto& [index, op] : planted) {
    float& w = params[index]->value.v[0];
    const float saved = w;
    w = std::numeric_limits<float>::quiet_NaN();
    const std::string got =
        check_message([&] { (void)model.tagformer().infer(in.feats, adj); });
    const std::string want =
        check_message([&] { (void)model.forward_features(in.feats, in.edges); });
    w = saved;
    EXPECT_NE(got.find(std::string(op) + ": non-finite forward output"),
              std::string::npos)
        << got;
    EXPECT_EQ(got, want);
  }
  // Restored weights pass the scan again.
  EXPECT_NO_THROW((void)model.tagformer().infer(in.feats, adj));
}

}  // namespace
}  // namespace nettag
