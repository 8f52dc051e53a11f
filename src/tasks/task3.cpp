#include "tasks/task3.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "model/gcn.hpp"
#include "model/graph.hpp"
#include "tasks/finetune.hpp"
#include "tasks/gbdt.hpp"
#include "util/parallel.hpp"

namespace nettag {

namespace {

constexpr float kGnnLr = 2e-3f;  ///< timing-GNN baseline's Adam rate
constexpr double kMapeFloor = 0.02;  ///< ns; smaller slacks skip MAPE

RegressionReport average_regression(const std::vector<RegressionReport>& rs) {
  RegressionReport avg;
  if (rs.empty()) return avg;
  for (const auto& r : rs) {
    avg.pearson_r += r.pearson_r;
    avg.mape += r.mape;
    avg.mae += r.mae;
    avg.rmse += r.rmse;
    avg.num_samples += r.num_samples;
  }
  const double k = static_cast<double>(rs.size());
  avg.pearson_r /= k;
  avg.mape /= k;
  avg.mae /= k;
  avg.rmse /= k;
  return avg;
}

/// Structural + physical + netlist-stage-timing node features for the
/// timing GNN baseline (the baseline of [2] consumes netlist-stage timing).
Mat timing_features(const Netlist& nl, const TimingReport& est) {
  const Mat base = netlist_base_features(nl);
  const Mat phys = netlist_phys_features(nl, netlist_stage_power(nl));
  const double crit = std::max(est.critical_path, 1e-6);
  Mat out(base.rows, base.cols + phys.cols + 3);
  for (int i = 0; i < base.rows; ++i) {
    for (int j = 0; j < base.cols; ++j) out.at(i, j) = base.at(i, j);
    for (int j = 0; j < phys.cols; ++j) out.at(i, base.cols + j) = phys.at(i, j);
    const double arr = est.arrival[static_cast<std::size_t>(i)];
    out.at(i, base.cols + phys.cols) = static_cast<float>(arr / crit);
    out.at(i, base.cols + phys.cols + 1) = static_cast<float>(arr / 10.0);
    out.at(i, base.cols + phys.cols + 2) =
        static_cast<float>(est.gate_delay[static_cast<std::size_t>(i)]) * 5.f;
  }
  return out;
}

}  // namespace

Task3Result run_task3(NetTag& model, const Corpus& corpus,
                      const Task3Options& options, Rng& rng) {
  std::vector<int> order(corpus.designs.size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  const int n_test = std::min<int>(options.num_test_designs,
                                   static_cast<int>(order.size()) / 2);
  std::vector<int> test(order.begin(), order.begin() + n_test);
  std::vector<int> train(order.begin() + n_test, order.end());

  // ---------------- NetTAG ---------------------------------------------------
  // Both predictors model endpoint *arrival* (= clock - slack): arrival is a
  // structural quantity that transfers across designs, while raw slack mixes
  // in each design's clock constraint (which is a known input, appended as a
  // feature / used to convert back).
  // Netlist-stage STA estimates per design (input feature for both models).
  std::vector<TimingReport> est(corpus.designs.size());
  ThreadPool::instance().run_indexed(corpus.designs.size(), [&](std::size_t d) {
    est[d] = netlist_stage_sta(corpus.designs[d].gen.netlist);
  });
  auto est_arrival = [&](std::size_t d, const std::string& reg_name) {
    const Netlist& nl = corpus.designs[d].gen.netlist;
    const GateId r = nl.find(reg_name);
    return est[d].arrival[static_cast<std::size_t>(nl.gate(r).fanins[0])];
  };

  // Per-cone rows: cone embedding features + clock constraint + the STA
  // estimate + design-level context (layout-stage wire delay and optimization
  // pressure scale with the whole design, not just the cone).
  std::vector<std::vector<Mat>> cone_emb(corpus.designs.size());
  ThreadPool::instance().run_indexed(corpus.designs.size(), [&](std::size_t d) {
    const Netlist& nl = corpus.designs[d].gen.netlist;
    double fanout_sum = 0;
    for (const Gate& g : nl.gates()) fanout_sum += static_cast<double>(g.fanouts.size());
    const float design_size = std::log1p(static_cast<float>(nl.size())) / 5.f;
    const float design_fanout =
        static_cast<float>(fanout_sum / static_cast<double>(nl.size())) / 3.f;
    const float design_crit = static_cast<float>(est[d].critical_path);
    for (const ConeSample& c : corpus.designs[d].cones) {
      Mat f = model.cone_feature(c.cone);
      Mat row(1, f.cols + 5);
      for (int j = 0; j < f.cols; ++j) row.at(0, j) = f.at(0, j);
      int at = f.cols;
      row.at(0, at++) = static_cast<float>(c.clock_period);
      row.at(0, at++) = static_cast<float>(est_arrival(d, c.register_name));
      row.at(0, at++) = design_size;
      row.at(0, at++) = design_fanout;
      row.at(0, at++) = design_crit;
      cone_emb[d].push_back(std::move(row));
    }
  });
  // Residual learning in log-ratio space: sign-off arrival is modeled as a
  // *multiplicative* correction of the netlist-stage estimate (wire delay
  // and optimization scale with the path, so the ratio is bounded across
  // design sizes while the absolute gap is not).
  auto log_ratio = [](double label_arr, double est_arr) {
    return std::log(std::max(label_arr, 1e-3) / std::max(est_arr, 1e-3));
  };
  std::vector<Mat> x_parts;
  std::vector<double> y_train;
  for (int d : train) {
    const std::size_t di = static_cast<std::size_t>(d);
    const auto& cones = corpus.designs[di].cones;
    for (std::size_t i = 0; i < cones.size(); ++i) {
      x_parts.push_back(cone_emb[di][i]);
      const double label_arr = cones[i].clock_period - cones[i].slack_label;
      y_train.push_back(
          log_ratio(label_arr, est_arrival(di, cones[i].register_name)));
    }
  }
  // Fine-tune with the tree-based model (paper §II-F allows "MLPs or
  // tree-based models (e.g., XGBoost)"): boosted trees pick up the
  // design-conditional ratio splits much more robustly than a small MLP at
  // this sample count.
  GbdtRegressor head;
  if (!x_parts.empty()) head.fit(vstack(x_parts), y_train, rng);

  // ---------------- timing GNN baseline -------------------------------------
  Rng gnn_rng = rng.fork();
  Gcn gnn(netlist_base_feature_dim() + netlist_phys_feature_dim() + 3, 1,
          gnn_rng);
  Adam opt(gnn.params(), kGnnLr);

  std::vector<Mat> feats(corpus.designs.size()), adjs(corpus.designs.size());
  std::vector<std::vector<int>> reg_rows(corpus.designs.size());
  std::vector<std::vector<double>> reg_slack(corpus.designs.size());
  std::vector<std::vector<double>> reg_residual(corpus.designs.size());
  std::vector<std::vector<double>> reg_est(corpus.designs.size());
  std::vector<std::vector<double>> reg_clock(corpus.designs.size());
  for (std::size_t d = 0; d < corpus.designs.size(); ++d) {
    const Netlist& nl = corpus.designs[d].gen.netlist;
    feats[d] = timing_features(nl, est[d]);
    adjs[d] = normalized_adjacency(static_cast<int>(nl.size()), netlist_edges(nl));
    for (const ConeSample& c : corpus.designs[d].cones) {
      const GateId r = nl.find(c.register_name);
      const double e = est_arrival(d, c.register_name);
      reg_rows[d].push_back(static_cast<int>(r));
      reg_slack[d].push_back(c.slack_label);
      reg_est[d].push_back(e);
      reg_residual[d].push_back(
          std::log(std::max(c.clock_period - c.slack_label, 1e-3) /
                   std::max(e, 1e-3)));
      reg_clock[d].push_back(c.clock_period);
    }
  }
  // Residual z-normalization over the training split.
  double res_mean = 0, res_std = 1;
  {
    double sum = 0, sq = 0;
    std::size_t n = 0;
    for (int d : train) {
      for (double r : reg_residual[static_cast<std::size_t>(d)]) {
        sum += r;
        sq += r * r;
        ++n;
      }
    }
    if (n) {
      res_mean = sum / static_cast<double>(n);
      res_std = std::sqrt(
          std::max(sq / static_cast<double>(n) - res_mean * res_mean, 1e-9));
    }
  }
  for (int step = 0; step < options.gnn_steps; ++step) {
    const std::size_t d =
        static_cast<std::size_t>(train[gnn_rng.index(train.size())]);
    if (reg_rows[d].empty()) continue;
    Tensor nodes = gnn.forward_nodes(make_tensor(feats[d], false),
                                     make_tensor(adjs[d], false));
    std::vector<Tensor> rows;
    Mat target(static_cast<int>(reg_rows[d].size()), 1);
    for (std::size_t i = 0; i < reg_rows[d].size(); ++i) {
      rows.push_back(slice_rows(nodes, reg_rows[d][i], 1));
      target.at(static_cast<int>(i), 0) =
          static_cast<float>((reg_residual[d][i] - res_mean) / res_std);
    }
    Tensor loss = mse_loss(concat_rows(rows), target);
    backward(loss);
    opt.step();
  }

  // ---------------- evaluation ----------------------------------------------
  Task3Result result;
  std::vector<RegressionReport> gnn_reports, nettag_reports;
  for (int d : test) {
    const std::size_t di = static_cast<std::size_t>(d);
    const auto& cones = corpus.designs[di].cones;
    if (cones.size() < 2) continue;
    Task3Row row;
    row.design = corpus.designs[di].gen.netlist.name();
    // Skip near-zero slacks in MAPE (percentage error is undefined at the
    // zero crossing); 5% of the clock period is the materiality threshold.
    const double mape_floor =
        std::max(kMapeFloor, 0.05 * cones[0].clock_period);
    std::vector<double> truth;
    std::vector<Mat> xs;
    for (std::size_t i = 0; i < cones.size(); ++i) {
      truth.push_back(cones[i].slack_label);
      xs.push_back(cone_emb[di][i]);
    }
    std::vector<double> ratio_pred = head.predict(vstack(xs));
    std::vector<double> slack_pred;
    for (std::size_t i = 0; i < cones.size(); ++i) {
      const double r = std::clamp(ratio_pred[i], -1.0, 4.5);
      const double arr =
          std::max(est_arrival(di, cones[i].register_name), 1e-3) * std::exp(r);
      slack_pred.push_back(cones[i].clock_period - arr);
    }
    row.nettag = regression_report(truth, slack_pred, mape_floor);
    Tensor nodes = gnn.forward_nodes(make_tensor(feats[di], false),
                                     make_tensor(adjs[di], false));
    std::vector<double> gnn_pred;
    for (std::size_t i = 0; i < reg_rows[di].size(); ++i) {
      const double z =
          nodes->value.at(reg_rows[di][i], 0) * res_std + res_mean;
      const double arr =
          std::max(reg_est[di][i], 1e-3) * std::exp(std::clamp(z, -1.0, 4.5));
      gnn_pred.push_back(reg_clock[di][i] - arr);
    }
    row.gnn = regression_report(reg_slack[di], gnn_pred, mape_floor);
    gnn_reports.push_back(row.gnn);
    nettag_reports.push_back(row.nettag);
    result.rows.push_back(std::move(row));
  }
  result.gnn_avg = average_regression(gnn_reports);
  result.nettag_avg = average_regression(nettag_reports);
  return result;
}

}  // namespace nettag
