// Tests for graph utilities, the text encoder, TAGFormer, and the GCN.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "model/gcn.hpp"
#include "model/graph.hpp"
#include "model/tagformer.hpp"
#include "model/text_encoder.hpp"
#include "rtlgen/generator.hpp"

namespace nettag {
namespace {

TEST(GraphUtils, NormalizedAdjacencySymmetric) {
  const std::vector<std::pair<int, int>> edges = {{0, 1}, {1, 2}, {0, 2}};
  const Mat a = normalized_adjacency(4, edges);
  ASSERT_EQ(a.rows, 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_NEAR(a.at(i, j), a.at(j, i), 1e-6);
    }
  }
  // Self loops present; isolated node 3 normalizes to exactly 1.
  EXPECT_NEAR(a.at(3, 3), 1.f, 1e-6);
  EXPECT_GT(a.at(0, 1), 0.f);
}

TEST(GraphUtils, NormalizationBoundsRowSums) {
  // D^-1/2 (A+I) D^-1/2 has spectral radius <= 1; its entries are positive
  // and each row sums to <= sqrt(deg) bound. Check entries in (0, 1].
  const std::vector<std::pair<int, int>> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  const Mat a = normalized_adjacency(4, edges);
  for (float v : a.v) {
    EXPECT_GE(v, 0.f);
    EXPECT_LE(v, 1.f);
  }
}

TEST(GraphUtils, TagAdjacencyConnectsCls) {
  const Mat a = tag_adjacency(3, {{0, 1}});
  ASSERT_EQ(a.rows, 4);
  // CLS (index 3) connected to every node.
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(a.at(3, i), 0.f);
    EXPECT_GT(a.at(i, 3), 0.f);
  }
}

/// normalized_adjacency as it was first written: 1/sqrt(max(deg_j, 1))
/// recomputed for every (i, j) pair. Kept as the byte oracle.
Mat normalized_adjacency_per_pair(
    int n, const std::vector<std::pair<int, int>>& edges) {
  Mat a(n, n);
  for (int i = 0; i < n; ++i) a.at(i, i) = 1.f;
  for (const auto& [u, v] : edges) {
    a.at(u, v) = 1.f;
    a.at(v, u) = 1.f;
  }
  std::vector<float> deg(static_cast<std::size_t>(n), 0.f);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) deg[static_cast<std::size_t>(i)] += a.at(i, j);
  }
  for (int i = 0; i < n; ++i) {
    const float di = 1.f / std::sqrt(std::max(deg[static_cast<std::size_t>(i)], 1.f));
    for (int j = 0; j < n; ++j) {
      const float dj = 1.f / std::sqrt(std::max(deg[static_cast<std::size_t>(j)], 1.f));
      a.at(i, j) *= di * dj;
    }
  }
  return a;
}

TEST(GraphUtils, NormalizedAdjacencyBytesMatchPerPairOracle) {
  Rng rng(2718);
  for (const int n : {1, 2, 17, 121}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<std::pair<int, int>> edges;
      const int count = rng.uniform_int(0, 3 * n);
      for (int e = 0; e < count; ++e) {
        const int u = rng.uniform_int(0, n - 1);
        const int v = rng.uniform_int(0, n - 1);
        edges.emplace_back(u, v);
        if (rng.chance(0.3)) edges.emplace_back(u, v);  // duplicate
        if (rng.chance(0.3)) edges.emplace_back(v, u);  // reversed
      }
      const Mat got = normalized_adjacency(n, edges);
      const Mat want = normalized_adjacency_per_pair(n, edges);
      ASSERT_EQ(got.rows, n);
      ASSERT_EQ(got.cols, n);
      ASSERT_EQ(0, std::memcmp(got.v.data(), want.v.data(),
                               want.v.size() * sizeof(float)))
          << "n=" << n << " trial " << trial;
    }
  }
}

TEST(GraphUtils, NetlistFeaturesShape) {
  Rng rng(1);
  const Netlist nl =
      generate_design(family_profile("opencores"), rng, "feat").netlist;
  const Mat base = netlist_base_features(nl);
  const Mat phys = netlist_phys_features(nl, netlist_stage_power(nl));
  EXPECT_EQ(base.rows, static_cast<int>(nl.size()));
  EXPECT_EQ(base.cols, netlist_base_feature_dim());
  EXPECT_EQ(phys.cols, netlist_phys_feature_dim());
  // One-hot region: exactly one type bit set per gate.
  for (int i = 0; i < base.rows; ++i) {
    float sum = 0;
    for (int j = 0; j < kNumCellTypes; ++j) sum += base.at(i, j);
    EXPECT_NEAR(sum, 1.f, 1e-6);
  }
  // Activity columns are probabilities.
  for (int i = 0; i < phys.rows; ++i) {
    EXPECT_GE(phys.at(i, 7), 0.f);
    EXPECT_LE(phys.at(i, 7), 1.f);
    EXPECT_GE(phys.at(i, 8), 0.f);
    EXPECT_LE(phys.at(i, 8), 1.f);
  }
}

TEST(TextEncoder, OutputShapeAndDeterminism) {
  Vocab vocab;
  Rng rng(2);
  TextEncoder enc(vocab, TextEncoderConfig::small(), rng);
  const Tensor a = enc.encode("U3 = !((R1^R2)|!R2)");
  EXPECT_EQ(a->value.rows, 1);
  EXPECT_EQ(a->value.cols, enc.config().out_dim);
  const Tensor b = enc.encode("U3 = !((R1^R2)|!R2)");
  for (std::size_t i = 0; i < a->value.v.size(); ++i) {
    EXPECT_FLOAT_EQ(a->value.v[i], b->value.v[i]);
  }
}

TEST(TextEncoder, NameInvariance) {
  // Anonymizing tokenization: renaming identifiers must not change output.
  Vocab vocab;
  Rng rng(3);
  TextEncoder enc(vocab, TextEncoderConfig::tiny(), rng);
  const Tensor a = enc.encode("U3 = !(R1|R2)");
  const Tensor b = enc.encode("zz = !(alpha|beta)");
  for (std::size_t i = 0; i < a->value.v.size(); ++i) {
    EXPECT_FLOAT_EQ(a->value.v[i], b->value.v[i]);
  }
}

TEST(TextEncoder, DifferentTextsDifferentEmbeddings) {
  Vocab vocab;
  Rng rng(4);
  TextEncoder enc(vocab, TextEncoderConfig::small(), rng);
  const Tensor a = enc.encode("(a&b)");
  const Tensor b = enc.encode("(a|b)");
  double diff = 0;
  for (std::size_t i = 0; i < a->value.v.size(); ++i) {
    diff += std::abs(a->value.v[i] - b->value.v[i]);
  }
  EXPECT_GT(diff, 1e-4);
}

TEST(TextEncoder, TruncatesLongInput) {
  Vocab vocab;
  Rng rng(5);
  TextEncoderConfig cfg = TextEncoderConfig::tiny();
  cfg.max_len = 8;
  TextEncoder enc(vocab, cfg, rng);
  std::string longtext = "a";
  for (int i = 0; i < 500; ++i) longtext += "&a";
  EXPECT_NO_THROW(enc.encode(longtext));
}

TEST(TextEncoder, EmptyTextHandled) {
  Vocab vocab;
  Rng rng(6);
  TextEncoder enc(vocab, TextEncoderConfig::tiny(), rng);
  const Tensor e = enc.encode("");
  EXPECT_EQ(e->value.cols, enc.config().out_dim);
}

TEST(TextEncoder, SizeTiersOrdered) {
  Vocab vocab;
  Rng rng(7);
  TextEncoder tiny(vocab, TextEncoderConfig::tiny(), rng);
  TextEncoder small(vocab, TextEncoderConfig::small(), rng);
  TextEncoder base(vocab, TextEncoderConfig::base(), rng);
  EXPECT_LT(tiny.num_params(), small.num_params());
  EXPECT_LT(small.num_params(), base.num_params());
}

TEST(TextEncoder, BatchMatchesSingle) {
  Vocab vocab;
  Rng rng(8);
  TextEncoder enc(vocab, TextEncoderConfig::tiny(), rng);
  const std::vector<std::string> texts = {"(a&b)", "!(c|d)"};
  const Tensor batch = enc.encode_batch(texts);
  ASSERT_EQ(batch->value.rows, 2);
  const Tensor one = enc.encode(texts[1]);
  for (int j = 0; j < batch->value.cols; ++j) {
    EXPECT_FLOAT_EQ(batch->value.at(1, j), one->value.at(0, j));
  }
}

TEST(TagFormer, OutputShapes) {
  Rng rng(9);
  TagFormerConfig cfg;
  cfg.in_dim = 10;
  cfg.d_model = 16;
  cfg.num_layers = 2;
  cfg.out_dim = 12;
  TagFormer tf(cfg, rng);
  Mat feats(5, 10);
  for (float& x : feats.v) x = 0.1f;
  const Mat adj = tag_adjacency(5, {{0, 1}, {1, 2}});
  const TagFormer::Output out =
      tf.forward(make_tensor(feats, false), make_tensor(adj, false));
  EXPECT_EQ(out.nodes->value.rows, 5);
  EXPECT_EQ(out.nodes->value.cols, 12);
  EXPECT_EQ(out.cls->value.rows, 1);
  EXPECT_EQ(out.cls->value.cols, 12);
}

TEST(TagFormer, StructureChangesEmbedding) {
  // Same features, different topology -> different CLS embedding.
  Rng rng(10);
  TagFormerConfig cfg;
  cfg.in_dim = 6;
  TagFormer tf(cfg, rng);
  Mat feats(4, 6);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 6; ++j) feats.at(i, j) = 0.3f * static_cast<float>(i);
  }
  const Mat chain = tag_adjacency(4, {{0, 1}, {1, 2}, {2, 3}});
  const Mat star = tag_adjacency(4, {{0, 1}, {0, 2}, {0, 3}});
  const Tensor f = make_tensor(feats, false);
  const auto a = tf.forward(f, make_tensor(chain, false));
  const auto b = tf.forward(f, make_tensor(star, false));
  double diff = 0;
  for (std::size_t i = 0; i < a.cls->value.v.size(); ++i) {
    diff += std::abs(a.cls->value.v[i] - b.cls->value.v[i]);
  }
  EXPECT_GT(diff, 1e-4);
}

TEST(TagFormer, GradientsReachAllParams) {
  Rng rng(11);
  TagFormerConfig cfg;
  cfg.in_dim = 6;
  cfg.num_layers = 1;
  TagFormer tf(cfg, rng);
  Mat feats(3, 6);
  for (float& x : feats.v) x = 0.5f;
  const Mat adj = tag_adjacency(3, {{0, 1}});
  const auto out = tf.forward(make_tensor(feats, false), make_tensor(adj, false));
  Mat target(1, cfg.out_dim);
  Tensor loss = mse_loss(out.cls, target);
  backward(loss);
  int with_grad = 0;
  for (const Tensor& p : tf.params()) {
    double s = 0;
    for (float g : p->grad.v) s += std::abs(g);
    if (s > 0) ++with_grad;
  }
  EXPECT_GT(with_grad, static_cast<int>(tf.params().size()) * 2 / 3);
}

TEST(Gcn, NodeAndGraphShapes) {
  Rng rng(12);
  Gcn gcn(8, 5, rng);
  Mat feats(6, 8);
  const Mat adj = normalized_adjacency(6, {{0, 1}, {2, 3}});
  const Tensor nodes =
      gcn.forward_nodes(make_tensor(feats, false), make_tensor(adj, false));
  EXPECT_EQ(nodes->value.rows, 6);
  EXPECT_EQ(nodes->value.cols, 5);
  const Tensor graph =
      gcn.forward_graph(make_tensor(feats, false), make_tensor(adj, false));
  EXPECT_EQ(graph->value.rows, 1);
  EXPECT_EQ(graph->value.cols, 5);
}

}  // namespace
}  // namespace nettag
