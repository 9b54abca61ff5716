// Ablation: geometry sensitivity of the joint scheme.
//
// The planner picks (k, l) automatically; this bench shows *why*: it sweeps
// the replication factor k and path length l independently at a fixed
// malicious rate and prints the Rr/Rd trade-off -- k buys drop resilience
// and costs release resilience, l does the reverse (paper §III-C's
// trade-off discussion and Lemma 1).
//
// Purely analytic (no Monte-Carlo runs to shard); the JSON artifact keeps
// the trajectory format uniform across benches.
#include <iostream>

#include "bench_common.hpp"
#include "emerge/experiment/table.hpp"
#include "emerge/resilience.hpp"

namespace {

using namespace emergence::core;

}  // namespace

int main(int argc, char** argv) {
  emergence::bench::parse_flags(argc, argv);
  const double p = 0.3;
  std::cout << "# == Ablation: joint-scheme geometry trade-off at p = 0.3 ==\n"
            << "# Rr falls and Rd rises with k; the reverse with l; "
               "Rr + Rd > 1 throughout (Lemma 1).\n\n";
  // Analytic-only sweep: no Monte-Carlo runs, so the root seed is moot (0).
  emergence::bench::BenchReport json("ablation_geometry", 0, 1,
                                     "geometry-ablation", 0);

  FigureTable k_table("sweep k (l = 40)", {"k", "Rr", "Rd", "sum"});
  for (std::size_t k = 1; k <= 12; ++k) {
    const Resilience r =
        analytic_resilience(SchemeKind::kJoint, p, PathShape{k, 40});
    k_table.add_row({static_cast<double>(k), r.release_ahead, r.drop,
                     r.release_ahead + r.drop});
  }
  k_table.print(std::cout);
  json.add_table(k_table);

  FigureTable l_table("sweep l (k = 8)", {"l", "Rr", "Rd", "sum"});
  for (std::size_t l : {1u, 2u, 5u, 10u, 20u, 40u, 80u, 160u, 320u}) {
    const Resilience r =
        analytic_resilience(SchemeKind::kJoint, p, PathShape{8, l});
    l_table.add_row({static_cast<double>(l), r.release_ahead, r.drop,
                     r.release_ahead + r.drop});
  }
  l_table.print(std::cout);
  json.add_table(l_table);
  json.finish();
  return 0;
}
