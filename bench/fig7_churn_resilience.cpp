// Reproduces Fig. 7(a)-(d): resilience under churn for all four schemes,
// with the emerging time T set to alpha times the mean node lifetime,
// alpha in {1, 2, 3, 5}.
//
// Expected shape (paper §IV-B2): the centralized / disjoint / joint schemes
// degrade rapidly as alpha grows (stored layer keys leak to replacement
// nodes; in-transit packages die with their holders); the key-share routing
// scheme stays near its churn-free resilience even at alpha = 5 for
// p < 0.3.
#include <iostream>

#include "bench_common.hpp"
#include "emerge/experiment/table.hpp"

namespace {

using namespace emergence::core;

FigureTable run_panel(SweepRunner& runner, double alpha, std::size_t runs) {
  FigureTable table(
      "Fig 7, alpha = " + std::to_string(static_cast<int>(alpha)),
      {"p", "central", "disjoint", "joint", "share", "central_mc",
       "disjoint_mc", "joint_mc", "share_mc"});
  table.set_caption(
      "R = min(Rr, Rd); T = alpha * mean node lifetime; N = 10000");
  for (double p : emergence::bench::paper_p_sweep()) {
    EvalPoint point;
    point.p = p;
    point.population = 10000;
    point.planner.node_budget = 10000;
    point.runs = runs;
    point.churn = ChurnSpec::with_alpha(alpha);
    point.seed = 0xF170 + static_cast<std::uint64_t>(alpha * 100 + p * 1000);

    const EvalResult central =
        runner.evaluate_point(SchemeKind::kCentralized, point);
    const EvalResult disjoint =
        runner.evaluate_point(SchemeKind::kDisjoint, point);
    const EvalResult joint = runner.evaluate_point(SchemeKind::kJoint, point);
    const EvalResult share = runner.evaluate_point(SchemeKind::kShare, point);
    table.add_row({p, central.R_analytic(), disjoint.R_analytic(),
                   joint.R_analytic(), share.R_analytic(), central.R_mc(),
                   disjoint.R_mc(), joint.R_mc(), share.R_mc()});
  }
  table.print(std::cout);
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  const auto [runs, threads] =
      emergence::bench::parse_sweep_flags(argc, argv, 500);
  SweepRunner runner(SweepOptions{threads});
  emergence::bench::print_setup(
      "Fig. 7: churn resilience, alpha = T / node lifetime", runs);
  emergence::bench::BenchReport json("fig7_churn_resilience", runs,
                                     runner.threads(), "fig7-churn-resilience",
                                     0xF170);
  for (double alpha : {1.0, 2.0, 3.0, 5.0}) {
    json.add_table(run_panel(runner, alpha, runs));
  }
  json.finish();
  return 0;
}
