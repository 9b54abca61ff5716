// Reproduces Fig. 8: resilience of the key-share routing scheme when the
// number of nodes available for path construction shrinks from 10000 to
// 5000, 1000 and 100 (alpha = 3).
//
// Expected shape (paper §IV-B3): 5000 nodes track the 10000-node curve;
// 1000 nodes hold R > 0.95 to p ~ 0.26; 100 nodes hold R > 0.9 to p ~ 0.14.
#include <iostream>

#include "bench_common.hpp"
#include "emerge/experiment/table.hpp"

namespace {

using namespace emergence::core;

}  // namespace

int main(int argc, char** argv) {
  const auto [runs, threads] =
      emergence::bench::parse_sweep_flags(argc, argv, 1000);
  SweepRunner runner(SweepOptions{threads});
  emergence::bench::print_setup(
      "Fig. 8: key-share routing cost (node budget) sweep, alpha = 3", runs);
  emergence::bench::BenchReport json("fig8_share_cost", runs, runner.threads(),
                                     "fig8-share-cost", 0xF180);

  const std::vector<std::size_t> budgets = {100, 1000, 5000, 10000};
  FigureTable table("Fig 8: share-scheme resilience vs node budget",
                    {"p", "N100", "N1000", "N5000", "N10000", "N100_mc",
                     "N1000_mc", "N5000_mc", "N10000_mc"});
  table.set_caption("R = min(Rr, Rd); alpha = 3; population 10000");

  for (double p : emergence::bench::paper_p_sweep()) {
    std::vector<double> row{p};
    std::vector<double> mc_row;
    for (std::size_t budget : budgets) {
      EvalPoint point;
      point.p = p;
      point.population = 10000;
      point.planner.node_budget = budget;
      point.runs = runs;
      point.churn = ChurnSpec::with_alpha(3.0);
      point.seed = 0xF180 + budget + static_cast<std::uint64_t>(p * 1000);
      const EvalResult share = runner.evaluate_point(SchemeKind::kShare, point);
      row.push_back(share.R_analytic());
      mc_row.push_back(share.R_mc());
    }
    row.insert(row.end(), mc_row.begin(), mc_row.end());
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  json.add_table(table);
  json.finish();
  return 0;
}
