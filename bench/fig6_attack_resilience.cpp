// Reproduces Fig. 6(a) and Fig. 6(c): attack resilience R = min(Rr, Rd) of
// the centralized, node-disjoint and node-joint schemes versus the malicious
// node rate p, for DHT populations of 10000 and 100 nodes (no churn).
//
// Expected shape (paper §IV-B1): disjoint holds R > 0.9 up to p ~ 0.18 then
// falls toward the 1-p baseline; joint holds R > 0.99 to p ~ 0.34 and
// R > 0.9 to p ~ 0.42; shrinking the network to 100 nodes barely changes
// the resilience.
#include <iostream>

#include "bench_common.hpp"
#include "emerge/experiment/table.hpp"

namespace {

using namespace emergence::core;

FigureTable run_panel(SweepRunner& runner, const std::string& title,
                      std::size_t population, std::size_t runs) {
  FigureTable table(title,
                    {"p", "central", "disjoint", "joint", "central_mc",
                     "disjoint_mc", "joint_mc"});
  table.set_caption("analytic R and Monte-Carlo R per scheme, N = " +
                    std::to_string(population));
  for (double p : emergence::bench::paper_p_sweep()) {
    EvalPoint point;
    point.p = p;
    point.population = population;
    point.planner.node_budget = population;
    point.runs = runs;
    point.seed = 0xF16A + static_cast<std::uint64_t>(p * 1000);

    const EvalResult central =
        runner.evaluate_point(SchemeKind::kCentralized, point);
    const EvalResult disjoint =
        runner.evaluate_point(SchemeKind::kDisjoint, point);
    const EvalResult joint = runner.evaluate_point(SchemeKind::kJoint, point);
    table.add_row({p, central.R_analytic(), disjoint.R_analytic(),
                   joint.R_analytic(), central.R_mc(), disjoint.R_mc(),
                   joint.R_mc()});
  }
  table.print(std::cout);
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  const auto [runs, threads] =
      emergence::bench::parse_sweep_flags(argc, argv, 1000);
  SweepRunner runner(SweepOptions{threads});
  emergence::bench::print_setup(
      "Fig. 6(a)/(c): attack resilience vs malicious rate", runs);
  emergence::bench::BenchReport json("fig6_attack_resilience", runs,
                                     runner.threads(), "fig6-attack-resilience",
                                     0xF16A);
  json.add_table(
      run_panel(runner, "Fig 6(a): attack resilience, N = 10000", 10000, runs));
  json.add_table(
      run_panel(runner, "Fig 6(c): attack resilience, N = 100", 100, runs));
  json.finish();
  return 0;
}
