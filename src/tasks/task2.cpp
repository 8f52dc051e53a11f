#include "tasks/task2.hpp"

#include <numeric>

#include "model/gcn.hpp"
#include "model/graph.hpp"
#include "util/parallel.hpp"

namespace nettag {

namespace {

constexpr int kNumTestDesigns = 8;  ///< Table IV lists 8 designs
constexpr float kGnnLr = 3e-3f;     ///< ReIGNN baseline's Adam rate

BinaryReport average_binary(const std::vector<BinaryReport>& reports) {
  BinaryReport avg;
  if (reports.empty()) return avg;
  for (const auto& r : reports) {
    avg.sensitivity += r.sensitivity;
    avg.specificity += r.specificity;
    avg.balanced_accuracy += r.balanced_accuracy;
    avg.positives += r.positives;
    avg.negatives += r.negatives;
  }
  const double k = static_cast<double>(reports.size());
  avg.sensitivity /= k;
  avg.specificity /= k;
  avg.balanced_accuracy /= k;
  return avg;
}

}  // namespace

Task2Result run_task2(NetTag& model, const Corpus& corpus,
                      const Task2Options& options, Rng& rng) {
  // Keep only designs that actually contain both register kinds in the test
  // pool so sensitivity is well-defined.
  std::vector<int> order(corpus.designs.size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::vector<int> test, train;
  for (int d : order) {
    bool has_state = false, has_data = false;
    for (const ConeSample& c : corpus.designs[static_cast<std::size_t>(d)].cones) {
      (c.is_state_reg ? has_state : has_data) = true;
    }
    if (static_cast<int>(test.size()) < kNumTestDesigns && has_state &&
        has_data) {
      test.push_back(d);
    } else {
      train.push_back(d);
    }
  }

  // ---------------- NetTAG: cone embeddings + balanced head ----------------
  // Cache cone CLS embeddings per design.
  std::vector<std::vector<Mat>> cone_emb(corpus.designs.size());
  ThreadPool::instance().run_indexed(corpus.designs.size(), [&](std::size_t d) {
    for (const ConeSample& c : corpus.designs[d].cones) {
      cone_emb[d].push_back(model.cone_feature(c.cone));
    }
  });
  std::vector<Mat> x_parts;
  std::vector<int> y_train;
  for (int d : train) {
    const auto& cones = corpus.designs[static_cast<std::size_t>(d)].cones;
    for (std::size_t i = 0; i < cones.size(); ++i) {
      x_parts.push_back(cone_emb[static_cast<std::size_t>(d)][i]);
      y_train.push_back(cones[i].is_state_reg ? 1 : 0);
    }
  }
  FinetuneOptions head_opts = options.head;
  head_opts.class_weighted = true;  // state registers are the minority class
  ClassifierHead head(model.cone_feature_dim(), 2, head_opts, rng);
  if (!x_parts.empty()) head.fit(vstack(x_parts), y_train, rng);

  // ---------------- ReIGNN baseline: supervised GCN ------------------------
  Rng gnn_rng = rng.fork();
  Gcn gnn(netlist_base_feature_dim(), 2, gnn_rng);
  Adam opt(gnn.params(), kGnnLr);
  std::vector<Mat> feats(corpus.designs.size()), adjs(corpus.designs.size());
  std::vector<std::vector<int>> reg_rows(corpus.designs.size());
  std::vector<std::vector<int>> reg_labels(corpus.designs.size());
  for (std::size_t d = 0; d < corpus.designs.size(); ++d) {
    const Netlist& nl = corpus.designs[d].gen.netlist;
    feats[d] = netlist_base_features(nl);
    adjs[d] = normalized_adjacency(static_cast<int>(nl.size()), netlist_edges(nl));
    for (GateId r : nl.registers()) {
      reg_rows[d].push_back(static_cast<int>(r));
      reg_labels[d].push_back(nl.gate(r).is_state_reg ? 1 : 0);
    }
  }
  for (int step = 0; step < options.gnn_steps; ++step) {
    const std::size_t d =
        static_cast<std::size_t>(train[gnn_rng.index(train.size())]);
    if (reg_rows[d].empty()) continue;
    Tensor nodes = gnn.forward_nodes(make_tensor(feats[d], false),
                                     make_tensor(adjs[d], false));
    std::vector<Tensor> rows;
    for (int r : reg_rows[d]) rows.push_back(slice_rows(nodes, r, 1));
    Tensor loss = cross_entropy(concat_rows(rows), reg_labels[d]);
    backward(loss);
    opt.step();
  }

  // ---------------- evaluation ---------------------------------------------
  Task2Result result;
  std::vector<BinaryReport> reignn_reports, nettag_reports;
  for (int d : test) {
    const std::size_t di = static_cast<std::size_t>(d);
    const auto& cones = corpus.designs[di].cones;
    if (cones.empty()) continue;
    Task2Row row;
    row.design = corpus.designs[di].gen.netlist.name();
    // NetTAG.
    std::vector<int> truth, pred;
    std::vector<Mat> xs;
    for (std::size_t i = 0; i < cones.size(); ++i) {
      truth.push_back(cones[i].is_state_reg ? 1 : 0);
      xs.push_back(cone_emb[di][i]);
    }
    pred = head.predict(vstack(xs));
    row.nettag = binary_report(truth, pred);
    // ReIGNN.
    Tensor nodes = gnn.forward_nodes(make_tensor(feats[di], false),
                                     make_tensor(adjs[di], false));
    std::vector<int> gnn_pred;
    for (int r : reg_rows[di]) {
      gnn_pred.push_back(nodes->value.at(r, 1) > nodes->value.at(r, 0) ? 1 : 0);
    }
    row.reignn = binary_report(reg_labels[di], gnn_pred);
    reignn_reports.push_back(row.reignn);
    nettag_reports.push_back(row.nettag);
    result.rows.push_back(std::move(row));
  }
  result.reignn_avg = average_binary(reignn_reports);
  result.nettag_avg = average_binary(nettag_reports);
  return result;
}

}  // namespace nettag
