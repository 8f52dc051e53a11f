#include "tasks/aig_encoders.hpp"

#include <numeric>

#include "model/gcn.hpp"
#include "model/graph.hpp"
#include "netlist/aig.hpp"
#include "rtlgen/optimize.hpp"
#include "tasks/labels.hpp"
#include "tasks/task1.hpp"

namespace nettag {

namespace {

constexpr int kNumTestDesigns = 6;
constexpr float kLr = 2e-3f;      ///< both baseline encoders' Adam rate
constexpr int kSimPatterns = 64;  ///< random patterns for DeepGate supervision
/// Expression hops on the AIG (DESIGN.md §6.6): each library cell
/// decomposes into 2-4 AND/INV levels, so 4 AIG hops match the paper's 2
/// netlist hops.
constexpr int kAigKHop = 4;

struct AigDesign {
  Netlist aig;
  Mat feats;
  Mat adj;
  std::vector<int> gate_rows;
  std::vector<int> labels;
};

/// Frozen-encoder evaluation: fit a head on train-design node embeddings,
/// report the average per-design classification on test designs.
ClassificationReport eval_frozen(const std::vector<AigDesign>& designs,
                                 const std::vector<Mat>& node_emb,
                                 const std::vector<int>& train,
                                 const std::vector<int>& test,
                                 const FinetuneOptions& head_opts, Rng& rng) {
  const int num_classes = static_cast<int>(task1_classes().size());
  std::vector<Mat> x_parts;
  std::vector<int> y;
  for (int d : train) {
    const AigDesign& a = designs[static_cast<std::size_t>(d)];
    if (a.gate_rows.empty()) continue;
    x_parts.push_back(take_rows(node_emb[static_cast<std::size_t>(d)], a.gate_rows));
    y.insert(y.end(), a.labels.begin(), a.labels.end());
  }
  ClassifierHead head(node_emb[0].cols, num_classes, head_opts, rng);
  if (!x_parts.empty()) head.fit(vstack(x_parts), y, rng);
  std::vector<ClassificationReport> reports;
  for (int d : test) {
    const AigDesign& a = designs[static_cast<std::size_t>(d)];
    if (a.gate_rows.empty()) continue;
    const Mat x = take_rows(node_emb[static_cast<std::size_t>(d)], a.gate_rows);
    reports.push_back(classification_report(a.labels, head.predict(x)));
  }
  return average_reports(reports);
}

}  // namespace

AigCompareResult run_aig_comparison(NetTag& model, const Corpus& corpus,
                                    const AigCompareOptions& options, Rng& rng) {
  // Build AIG versions of every design, with Task 1 labels carried over.
  std::vector<AigDesign> designs;
  for (const DesignSample& d : corpus.designs) {
    AigDesign a;
    a.aig = to_aig(d.gen.netlist).aig;
    a.feats = netlist_base_features(a.aig);
    a.adj = normalized_adjacency(static_cast<int>(a.aig.size()),
                                 netlist_edges(a.aig));
    task1_gate_labels(a.aig, &a.gate_rows, &a.labels);
    designs.push_back(std::move(a));
  }
  std::vector<int> order(designs.size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  const int n_test = std::min<int>(kNumTestDesigns,
                                   static_cast<int>(order.size()) / 2);
  std::vector<int> test(order.begin(), order.begin() + n_test);
  std::vector<int> train(order.begin() + n_test, order.end());

  AigCompareResult result;

  // ---- FGNN-like: graph-contrastive pre-trained GCN ------------------------
  {
    Rng enc_rng = rng.fork();
    Gcn enc(netlist_base_feature_dim(), model.embedding_dim(), enc_rng);
    Adam opt(enc.params(), kLr);
    for (int step = 0; step < options.pretrain_steps; ++step) {
      std::vector<Tensor> anchors, positives;
      for (int b = 0; b < 4; ++b) {
        const AigDesign& a = designs[enc_rng.index(designs.size())];
        Netlist aug = cleanup(logic_rewrite(a.aig, enc_rng, 0.3));
        Mat aug_feats = netlist_base_features(aug);
        Mat aug_adj = normalized_adjacency(static_cast<int>(aug.size()),
                                           netlist_edges(aug));
        anchors.push_back(enc.forward_graph(make_tensor(a.feats, false),
                                            make_tensor(a.adj, false)));
        positives.push_back(enc.forward_graph(make_tensor(aug_feats, false),
                                              make_tensor(aug_adj, false)));
      }
      Tensor loss = info_nce(concat_rows(anchors), concat_rows(positives));
      backward(loss);
      opt.step();
    }
    std::vector<Mat> emb;
    for (const AigDesign& a : designs) {
      emb.push_back(enc.forward_nodes(make_tensor(a.feats, false),
                                      make_tensor(a.adj, false))
                        ->value);
    }
    Rng head_rng = rng.fork();
    result.fgnn = eval_frozen(designs, emb, train, test, options.head, head_rng);
  }

  // ---- DeepGate-like: simulation-probability pre-trained GCN ----------------
  {
    Rng enc_rng = rng.fork();
    Gcn enc(netlist_base_feature_dim(), model.embedding_dim(), enc_rng);
    Linear prob_head(model.embedding_dim(), 1, enc_rng);
    std::vector<Tensor> params = enc.params();
    for (const Tensor& p : prob_head.params()) params.push_back(p);
    Adam opt(params, kLr);
    // Per-design simulated signal probabilities (DeepGate supervision).
    std::vector<Mat> prob_targets;
    for (const AigDesign& a : designs) {
      std::vector<int> ones(a.aig.size(), 0);
      for (int pat = 0; pat < kSimPatterns; ++pat) {
        std::vector<bool> src(a.aig.size(), false);
        for (const Gate& g : a.aig.gates()) {
          if (g.type == CellType::kPort || g.type == CellType::kDff) {
            src[static_cast<std::size_t>(g.id)] = enc_rng.chance(0.5);
          }
        }
        const auto vals = simulate(a.aig, src);
        for (std::size_t i = 0; i < vals.size(); ++i) ones[i] += vals[i];
      }
      Mat t(static_cast<int>(a.aig.size()), 1);
      for (std::size_t i = 0; i < ones.size(); ++i) {
        t.at(static_cast<int>(i), 0) =
            static_cast<float>(ones[i]) / static_cast<float>(kSimPatterns);
      }
      prob_targets.push_back(std::move(t));
    }
    for (int step = 0; step < options.pretrain_steps; ++step) {
      const std::size_t d = enc_rng.index(designs.size());
      Tensor nodes = enc.forward_nodes(make_tensor(designs[d].feats, false),
                                       make_tensor(designs[d].adj, false));
      Tensor pred = sigmoid(prob_head.forward(nodes));
      Tensor loss = mse_loss(pred, prob_targets[d]);
      backward(loss);
      opt.step();
    }
    std::vector<Mat> emb;
    for (const AigDesign& a : designs) {
      emb.push_back(enc.forward_nodes(make_tensor(a.feats, false),
                                      make_tensor(a.adj, false))
                        ->value);
    }
    Rng head_rng = rng.fork();
    result.deepgate =
        eval_frozen(designs, emb, train, test, options.head, head_rng);
  }

  // ---- ExprLLM-only: frozen text embeddings of per-gate expressions --------
  {
    std::vector<Mat> emb;
    for (const AigDesign& a : designs) {
      const TagGraph tag = build_tag(a.aig, kAigKHop);
      emb.push_back(model.input_features(tag, netlist_base_features(a.aig)));
    }
    Rng head_rng = rng.fork();
    result.expr_llm_only =
        eval_frozen(designs, emb, train, test, options.head, head_rng);
  }

  // ---- NetTAG on the AIG dataset --------------------------------------------
  {
    std::vector<Mat> emb;
    for (const AigDesign& a : designs) {
      const NetTag::ConeEmbedding e = model.embed(a.aig, kAigKHop);
      Mat joined(e.nodes.rows, e.nodes.cols + e.inputs.cols);
      for (int r = 0; r < e.nodes.rows; ++r) {
        for (int j = 0; j < e.nodes.cols; ++j) joined.at(r, j) = e.nodes.at(r, j);
        for (int j = 0; j < e.inputs.cols; ++j) {
          joined.at(r, e.nodes.cols + j) = e.inputs.at(r, j);
        }
      }
      emb.push_back(std::move(joined));
    }
    Rng head_rng = rng.fork();
    result.nettag = eval_frozen(designs, emb, train, test, options.head, head_rng);
  }
  return result;
}

}  // namespace nettag
