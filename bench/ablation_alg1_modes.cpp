// Ablation: Algorithm 1 accumulation modes.
//
// Compares the paper's Algorithm 1 exactly as printed (cumulative pr/pd,
// deterministic d dead shares) against the independent-column variant and
// the stochastic-deaths model, and validates each against Monte Carlo.
// The printed model is optimistic about drop resilience when n = N/l is
// small because it replaces Binomial(n, pdead) deaths with their floored
// expectation.
#include <iostream>

#include "bench_common.hpp"
#include "emerge/experiment/table.hpp"

namespace {

using namespace emergence::core;

}  // namespace

int main(int argc, char** argv) {
  const auto [runs, threads] =
      emergence::bench::parse_sweep_flags(argc, argv, 500);
  SweepRunner runner(SweepOptions{threads});
  std::cout << "# == Ablation: Algorithm 1 modes (share scheme, alpha = 3) ==\n"
            << "# as_printed / independent / stochastic: analytic R of each "
               "mode\n"
            << "# mc: Monte-Carlo R of the protocol planned with the "
               "stochastic mode\n\n";
  emergence::bench::BenchReport json("ablation_alg1_modes", runs,
                                     runner.threads(), "alg1-modes-ablation",
                                     0xa1b1);

  for (std::size_t budget : {100u, 1000u, 10000u}) {
    FigureTable table(
        "Algorithm 1 modes, N = " + std::to_string(budget),
        {"p", "as_printed", "independent", "stochastic", "mc"});
    for (double p : emergence::bench::paper_p_sweep()) {
      EvalPoint point;
      point.p = p;
      point.population = 10000;
      point.planner.node_budget = budget;
      point.runs = runs;
      point.churn = ChurnSpec::with_alpha(3.0);
      point.seed = 0xa1b1 + budget + static_cast<std::uint64_t>(p * 1000);

      // Evaluate the analytic prediction of each mode on its own preferred
      // geometry.
      const SharePlan printed =
          plan_share(p, point.planner, point.churn, Alg1Mode::kAsPrinted);
      const SharePlan independent = plan_share(
          p, point.planner, point.churn, Alg1Mode::kIndependentColumns);
      const SharePlan stochastic = plan_share(
          p, point.planner, point.churn, Alg1Mode::kStochasticDeaths);
      const EvalResult mc = runner.evaluate_point(SchemeKind::kShare, point);

      table.add_row(
          {p, printed.R(), independent.R(), stochastic.R(), mc.R_mc()});
    }
    table.print(std::cout);
    json.add_table(table);
  }
  json.finish();
  return 0;
}
