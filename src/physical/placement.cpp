#include "physical/placement.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace nettag {

double net_hpwl(const Netlist& nl, const Placement& pl, GateId driver) {
  const Gate& g = nl.gate(driver);
  if (g.fanouts.empty()) return 0.0;
  double xmin = pl.x[static_cast<std::size_t>(driver)];
  double xmax = xmin, ymin = pl.y[static_cast<std::size_t>(driver)], ymax = ymin;
  for (GateId s : g.fanouts) {
    xmin = std::min(xmin, pl.x[static_cast<std::size_t>(s)]);
    xmax = std::max(xmax, pl.x[static_cast<std::size_t>(s)]);
    ymin = std::min(ymin, pl.y[static_cast<std::size_t>(s)]);
    ymax = std::max(ymax, pl.y[static_cast<std::size_t>(s)]);
  }
  return (xmax - xmin) + (ymax - ymin);
}

double total_hpwl(const Netlist& nl, const Placement& pl) {
  double sum = 0.0;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    sum += net_hpwl(nl, pl, static_cast<GateId>(i));
  }
  return sum;
}

Placement place(const Netlist& nl, Rng& rng, int passes) {
  const std::size_t n = nl.size();
  Placement pl;
  pl.x.resize(n, 0.0);
  pl.y.resize(n, 0.0);
  pl.swap_passes = passes;
  if (n == 0) return pl;

  // Levelize: row index = combinational depth (sources on row 0).
  std::vector<int> level;
  const int max_level = logic_depth(nl, &level);

  // Pack each row left-to-right with cell-width pitch.
  std::vector<double> cursor(static_cast<std::size_t>(max_level) + 1, 0.0);
  for (const Gate& g : nl.gates()) {
    const int lv = level[static_cast<std::size_t>(g.id)];
    const double width =
        std::max(0.8, cell_info(g.type).area / pl.row_height);
    pl.x[static_cast<std::size_t>(g.id)] = cursor[static_cast<std::size_t>(lv)] + width / 2;
    pl.y[static_cast<std::size_t>(g.id)] = lv * pl.row_height;
    cursor[static_cast<std::size_t>(lv)] += width + 0.2;
  }

  // Pairwise-swap refinement within rows (positions swap; rows preserved so
  // the row structure stays legal).
  std::vector<std::vector<GateId>> rows(static_cast<std::size_t>(max_level) + 1);
  for (const Gate& g : nl.gates()) {
    rows[static_cast<std::size_t>(level[static_cast<std::size_t>(g.id)])].push_back(g.id);
  }
  auto cost_around = [&](GateId id) {
    // HPWL of all nets incident to `id`: its own net + nets driving it.
    double c = net_hpwl(nl, pl, id);
    for (GateId f : nl.gate(id).fanins) c += net_hpwl(nl, pl, f);
    return c;
  };
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t attempt = 0; attempt < n; ++attempt) {
      const auto& row = rows[rng.index(rows.size())];
      if (row.size() < 2) continue;
      const GateId a = row[rng.index(row.size())];
      const GateId b = row[rng.index(row.size())];
      if (a == b) continue;
      const double before = cost_around(a) + cost_around(b);
      std::swap(pl.x[static_cast<std::size_t>(a)], pl.x[static_cast<std::size_t>(b)]);
      const double after = cost_around(a) + cost_around(b);
      if (after > before) {
        std::swap(pl.x[static_cast<std::size_t>(a)], pl.x[static_cast<std::size_t>(b)]);
      }
    }
  }
  pl.total_hpwl = total_hpwl(nl, pl);
  return pl;
}

}  // namespace nettag
