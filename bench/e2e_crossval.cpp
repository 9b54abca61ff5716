// End-to-end cross-validation sweep: runs the full protocol stack (DHT +
// crypto + simulator + adversary + churn) as Monte-Carlo fleets over the
// pinned scenario matrix and gates the release / drop / timing rates
// against the statistical engine's estimates at the same parameter points.
//
// Any gated divergence beyond the two-sample binomial bound exits nonzero —
// by construction that is a bug in one of the engines, not noise (see
// docs/architecture.md, "Two engines, one truth"). CI runs this as a smoke
// job with a reduced population and run count and uploads the JSON
// artifact.
//
// Flags: --runs=N (full-stack worlds per scenario, default 300), --quick
// (100), --threads=N (0 = auto; never changes results), --population=N
// (DHT size per world, default 100).
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "emerge/experiment/table.hpp"
#include "workload/crossval.hpp"

namespace {

using namespace emergence::core;
using namespace emergence::workload;

std::size_t parse_population(int argc, char** argv) {
  std::size_t population = 100;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--population=", 0) == 0) {
      population = emergence::bench::parse_count(arg.substr(13), population,
                                                 "--population");
    }
  }
  return population;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t runs = emergence::bench::parse_runs(argc, argv, 300);
  const std::size_t population = parse_population(argc, argv);
  // Stat-engine runs are ~1000x cheaper than full-stack worlds; a larger
  // sample shrinks its share of the comparison bound to near nothing.
  const std::size_t stat_runs = std::max<std::size_t>(2000, 20 * runs);

  SweepRunner sweeps = emergence::bench::make_runner(argc, argv);

  std::cout << "# == e2e cross-validation: full stack vs stat engine ==\n"
            << "# setup: " << runs << " full-stack worlds vs " << stat_runs
            << " stat runs per scenario, population " << population
            << ", z = 4 binomial gates.\n"
            << "# columns: full-stack rate, stat-engine rate, difference, "
               "allowed bound, pass.\n\n";

  emergence::bench::BenchReport json("e2e_crossval", runs, sweeps.threads(),
                                     "crossval-matrix", 0xE2E0C0DE);

  std::size_t failures = 0;
  std::size_t comparisons = 0;
  for (const ScenarioSpec& scenario :
       default_crossval_matrix(runs, population)) {
    const CrossValResult result = cross_validate(sweeps, scenario, stat_runs);

    FigureTable table(scenario.name,
                      {"metric", "full_stack", "stat_engine", "diff", "bound",
                       "pass"});
    std::string caption = "metrics:";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
      const CrossValMetric& m = result.metrics[i];
      caption += " " + std::to_string(i) + "=" + m.metric;
      table.add_row({static_cast<double>(i), m.full_stack, m.stat_engine,
                     m.diff(), m.bound, m.pass ? 1.0 : 0.0});
      ++comparisons;
      if (!m.pass) ++failures;
      std::cout << scenario.name << " / " << m.metric << ": fs=" << m.full_stack
                << " stat=" << m.stat_engine << " diff=" << m.diff()
                << " bound=" << m.bound << (m.pass ? "" : "  << DIVERGENT")
                << "\n";
    }
    const double th = scenario.holding_period();
    const emergence::dht::TransportStats& net = result.full_stack.transport;
    caption += "; holders_stuck=" +
               std::to_string(result.full_stack.holders_stuck) +
               ", churn_deaths=" +
               std::to_string(result.full_stack.churn_deaths) +
               ", max_delivery_offset_ns=" +
               std::to_string(result.full_stack.max_delivery_offset_ns) +
               "; " +
               emergence::bench::latency_caption(result.full_stack.latency_us,
                                                 th) +
               "; net=" + scenario.transport.describe() + " attempts=" +
               std::to_string(net.attempts) + " dropped=" +
               std::to_string(net.dropped) + " retried=" +
               std::to_string(net.retried) + " timed_out=" +
               std::to_string(net.timed_out) + " hop_p50_s=" +
               std::to_string(
                   static_cast<double>(net.hop_latency_us.percentile(0.5)) *
                   1e-6) +
               " hop_p99_s=" +
               std::to_string(
                   static_cast<double>(net.hop_latency_us.percentile(0.99)) *
                   1e-6);
    table.set_caption(caption);
    json.add_table(table);
  }

  json.set_extra("comparisons", static_cast<double>(comparisons));
  json.set_extra("failures", static_cast<double>(failures));
  json.set_extra("population", static_cast<double>(population));
  json.finish();

  if (failures > 0) {
    std::cerr << "\ne2e_crossval: " << failures << " of " << comparisons
              << " gated comparisons diverged beyond the binomial bound\n";
    return 1;
  }
  std::cout << "\ne2e_crossval: all " << comparisons
            << " gated comparisons within bounds\n";
  return 0;
}
