#include "model/graph.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace nettag {

std::vector<std::pair<int, int>> netlist_edges(const Netlist& nl) {
  std::set<std::pair<int, int>> uniq;
  for (const Gate& g : nl.gates()) {
    for (GateId f : g.fanins) {
      uniq.emplace(static_cast<int>(f), static_cast<int>(g.id));
    }
  }
  return {uniq.begin(), uniq.end()};
}

Mat normalized_adjacency(int n, const std::vector<std::pair<int, int>>& edges) {
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

Mat tag_adjacency(int n, const std::vector<std::pair<int, int>>& edges) {
  std::vector<std::pair<int, int>> with_cls = edges;
  for (int i = 0; i < n; ++i) with_cls.emplace_back(i, n);
  return normalized_adjacency(n + 1, with_cls);
}

int netlist_base_feature_dim() { return kNumCellTypes + 7; }

Mat netlist_base_features(const Netlist& nl) {
  const int n = static_cast<int>(nl.size());
  Mat f(n, netlist_base_feature_dim());
  // Depth for normalization.
  std::vector<int> depth(nl.size(), 0);
  int max_depth = 1;
  for (GateId id : nl.topo_order()) {
    const Gate& g = nl.gate(id);
    if (g.type == CellType::kDff || g.type == CellType::kPort) continue;
    int d = 0;
    for (GateId x : g.fanins) d = std::max(d, depth[static_cast<std::size_t>(x)] + 1);
    depth[static_cast<std::size_t>(id)] = d;
    max_depth = std::max(max_depth, d);
  }
  for (const Gate& g : nl.gates()) {
    const int i = static_cast<int>(g.id);
    f.at(i, static_cast<int>(g.type)) = 1.f;
    int j = kNumCellTypes;
    f.at(i, j++) = static_cast<float>(g.fanins.size()) / 4.f;
    f.at(i, j++) = std::min(static_cast<float>(g.fanouts.size()) / 8.f, 2.f);
    f.at(i, j++) = static_cast<float>(depth[static_cast<std::size_t>(g.id)]) /
                   static_cast<float>(max_depth);
    f.at(i, j++) = g.is_primary_output ? 1.f : 0.f;
    f.at(i, j++) = g.type == CellType::kDff ? 1.f : 0.f;
    f.at(i, j++) = g.type == CellType::kPort ? 1.f : 0.f;
    f.at(i, j++) = 1.f;  // bias feature
  }
  return f;
}

int netlist_phys_feature_dim() { return 9; }

Mat netlist_phys_features(const Netlist& nl, const PowerReport& activity) {
  const int n = static_cast<int>(nl.size());
  NETTAG_CHECK(activity.prob.size() == nl.size() &&
                   activity.toggle.size() == nl.size(),
               "netlist_phys_features: power report covers " +
                   std::to_string(activity.prob.size()) + " gates, netlist " +
                   std::to_string(nl.size()));
  Mat f(n, netlist_phys_feature_dim());
  for (const Gate& g : nl.gates()) {
    const CellInfo& info = cell_info(g.type);
    const int i = static_cast<int>(g.id);
    int j = 0;
    f.at(i, j++) = static_cast<float>(info.area) / 5.f;
    f.at(i, j++) = static_cast<float>(info.leakage) / 10.f;
    f.at(i, j++) = static_cast<float>(info.input_cap) / 3.f;
    f.at(i, j++) = static_cast<float>(info.drive_res) / 0.2f;
    f.at(i, j++) = static_cast<float>(info.intrinsic_delay) / 0.1f;
    f.at(i, j++) = static_cast<float>(g.fanins.size()) / 4.f;
    f.at(i, j++) = std::min(static_cast<float>(g.fanouts.size()) / 8.f, 2.f);
    f.at(i, j++) = static_cast<float>(activity.prob[static_cast<std::size_t>(i)]);
    f.at(i, j++) = static_cast<float>(activity.toggle[static_cast<std::size_t>(i)]);
  }
  return f;
}

int layout_feature_dim() { return 6; }

Mat layout_features(const LayoutGraph& lg) {
  const int n = static_cast<int>(lg.node_feats.size());
  Mat f(n, layout_feature_dim());
  for (int i = 0; i < n; ++i) {
    const auto& nf = lg.node_feats[static_cast<std::size_t>(i)];
    f.at(i, 0) = static_cast<float>(nf[0]) / 10.f;   // wire cap
    f.at(i, 1) = static_cast<float>(nf[1]) / 5.f;    // wire res
    f.at(i, 2) = static_cast<float>(nf[2]) / 20.f;   // load
    f.at(i, 3) = static_cast<float>(nf[3]) / 0.2f;   // stage delay
    f.at(i, 4) = static_cast<float>(nf[4]) / 100.f;  // x
    f.at(i, 5) = static_cast<float>(nf[5]) / 100.f;  // y
  }
  return f;
}

}  // namespace nettag
