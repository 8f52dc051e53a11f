// Reproduces Table V: Task 4 — overall circuit area/power prediction at the
// netlist stage, in both label scenarios (w/o and w/ layout optimization).
//
// Paper reference:
//   Area  w/o opt: tool R .99 MAPE  5 | GNN R .99 MAPE  5 | NetTAG R .99 MAPE  4
//   Area  w/  opt: tool R .95 MAPE 34 | GNN R .95 MAPE 18 | NetTAG R .96 MAPE 11
//   Power w/o opt: tool R .99 MAPE 34 | GNN R .99 MAPE 12 | NetTAG R .99 MAPE  8
//   Power w/  opt: tool R .73 MAPE 38 | GNN R .76 MAPE 19 | NetTAG R .86 MAPE 12
// Shape to reproduce: the synthesis tool degrades sharply once layout
// optimization is on (and is always bad for power); NetTAG has the lowest
// MAPE in each row.
#include <iostream>

#include "common.hpp"
#include "tasks/task4.hpp"

using namespace nettag;

int main() {
  // Task 4 regresses whole circuits, so it needs a larger design corpus.
  bench::Setup s = bench::make_setup(/*designs_per_family=*/10);
  Task4Options options;
  Task4Result res = run_task4(*s.model, s.corpus, options, s.rng);

  std::cout << "== Table V: Task4 overall circuit power/area prediction ==\n";
  TextTable table;
  table.set_header({"Target", "Scenario", "Tool R", "MAPE(%)", "GNN R",
                    "MAPE(%)", "NetTAG R", "MAPE(%)"});
  auto add = [&](const char* target, const char* scenario, const Task4Cell& c) {
    table.add_row({target, scenario, fmt(c.tool.pearson_r, 2), pct(c.tool.mape),
                   fmt(c.gnn.pearson_r, 2), pct(c.gnn.mape),
                   fmt(c.nettag.pearson_r, 2), pct(c.nettag.mape)});
  };
  add("Area", "w/o opt", res.area_wo_opt);
  add("Area", "w/ opt", res.area_w_opt);
  add("Power", "w/o opt", res.power_wo_opt);
  add("Power", "w/ opt", res.power_w_opt);
  table.print(std::cout);

  int nettag_lowest = 0;
  for (const Task4Cell* c : {&res.area_wo_opt, &res.area_w_opt,
                             &res.power_wo_opt, &res.power_w_opt}) {
    nettag_lowest += c->nettag.mape <= c->tool.mape &&
                     c->nettag.mape <= c->gnn.mape;
  }
  std::cout << "# paper: NetTAG has the lowest MAPE in all 4 rows\n"
            << "# reproduced: NetTAG's MAPE is at most both the EDA tool's "
               "and the GNN's in "
            << nettag_lowest << "/4 rows\n";
  return 0;
}
