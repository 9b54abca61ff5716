// Reproduces Fig. 6(b) and Fig. 6(d): the number of nodes C required to
// build the routing paths versus the malicious rate p, for node budgets of
// 10000 and 100.
//
// Expected shape (paper §IV-B1): the centralized scheme always uses one
// node; the disjoint scheme's optimum stays small; the joint scheme's cost
// "rapidly increases towards 10000 after p = 0.15".
//
// Planning is analytic (no Monte-Carlo phase), so this driver has nothing
// to shard; it still emits the same JSON artifact as the sweep benches.
#include <iostream>

#include "bench_common.hpp"
#include "emerge/experiment/table.hpp"
#include "emerge/planner.hpp"

namespace {

using namespace emergence::core;

FigureTable run_panel(const std::string& title, std::size_t budget) {
  FigureTable table(title, {"p", "central", "disjoint", "joint"});
  table.set_caption("required nodes C per scheme, budget N = " +
                    std::to_string(budget));
  table.set_column_precision(0, 2);
  PlannerConfig config;
  config.node_budget = budget;
  for (double p : emergence::bench::paper_p_sweep()) {
    table.add_row({p, static_cast<double>(plan_centralized(p).nodes_used),
                   static_cast<double>(plan_disjoint(p, config).nodes_used),
                   static_cast<double>(plan_joint(p, config).nodes_used)});
  }
  table.print(std::cout, 0);
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  emergence::bench::parse_flags(argc, argv);
  std::cout << "# == Fig. 6(b)/(d): required nodes vs malicious rate ==\n"
            << "# planner: cheapest geometry within 1e-4 of the best "
               "min(Rr, Rd) under the budget.\n\n";
  // Planner-only sweep: no Monte-Carlo runs, so the root seed is moot (0).
  emergence::bench::BenchReport json("fig6_required_nodes", 0, 1,
                                     "fig6-required-nodes", 0);
  json.add_table(run_panel("Fig 6(b): required nodes, N = 10000", 10000));
  json.add_table(run_panel("Fig 6(d): required nodes, N = 100", 100));
  json.finish();
  return 0;
}
