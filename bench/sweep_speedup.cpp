// Sweep-engine acceptance bench: a Fig. 6-style sweep (4 schemes x 9 values
// of the malicious rate p x --runs Monte-Carlo repetitions) executed twice —
// once on a single thread and once on the parallel pool (--threads, default
// 8) — verifying that every EvalResult field is bit-identical across the two
// and reporting the wall-clock speedup. Emits BENCH_sweep.json.
//
// Note: the speedup is bounded by the physical core count; on a 1-core host
// the parallel pass measures pure engine overhead (expect ~1x).
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "emerge/experiment/table.hpp"

namespace {

using namespace emergence::core;

constexpr SchemeKind kSchemes[] = {SchemeKind::kCentralized,
                                   SchemeKind::kDisjoint, SchemeKind::kJoint,
                                   SchemeKind::kShare};

std::vector<double> nine_point_sweep() {
  std::vector<double> ps;
  for (int i = 1; i <= 9; ++i) ps.push_back(0.05 * i);
  return ps;
}

EvalPoint sweep_point(double p, std::size_t runs) {
  EvalPoint point;
  point.p = p;
  point.population = 10000;
  point.planner.node_budget = 10000;
  point.runs = runs;
  point.seed = 0x5eed + static_cast<std::uint64_t>(p * 1000);
  return point;
}

std::vector<EvalResult> run_sweep(SweepRunner& runner, std::size_t runs) {
  std::vector<EvalResult> results;
  for (double p : nine_point_sweep()) {
    for (SchemeKind kind : kSchemes) {
      results.push_back(runner.evaluate_point(kind, sweep_point(p, runs)));
    }
  }
  return results;
}

bool bit_identical(const EvalResult& a, const EvalResult& b) {
  return a.kind == b.kind && a.shape.k == b.shape.k &&
         a.shape.l == b.shape.l && a.nodes_used == b.nodes_used &&
         a.analytic.release_ahead == b.analytic.release_ahead &&
         a.analytic.drop == b.analytic.drop &&
         a.monte_carlo.release_ahead == b.monte_carlo.release_ahead &&
         a.monte_carlo.drop == b.monte_carlo.drop &&
         a.release_stderr == b.release_stderr &&
         a.drop_stderr == b.drop_stderr &&
         a.mean_compromised_suffix == b.mean_compromised_suffix;
}

}  // namespace

int main(int argc, char** argv) {
  auto [runs, threads] = emergence::bench::parse_sweep_flags(argc, argv, 1000);
  if (threads == 0) threads = 8;

  std::cout << "# == Sweep engine: serial vs " << threads
            << "-thread wall clock ==\n"
            << "# Fig. 6-style: 4 schemes x 9 p values x " << runs
            << " runs, no churn, N = 10000.\n\n";

  SweepRunner serial(SweepOptions{1, 64});
  const emergence::bench::WallTimer serial_timer;
  const std::vector<EvalResult> serial_results = run_sweep(serial, runs);
  const double serial_seconds = serial_timer.seconds();

  SweepRunner parallel(SweepOptions{threads, 64});
  const emergence::bench::WallTimer parallel_timer;
  const std::vector<EvalResult> parallel_results = run_sweep(parallel, runs);
  const double parallel_seconds = parallel_timer.seconds();

  bool identical = serial_results.size() == parallel_results.size();
  for (std::size_t i = 0; identical && i < serial_results.size(); ++i) {
    identical = bit_identical(serial_results[i], parallel_results[i]);
  }
  const double speedup =
      parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;

  FigureTable table("sweep results (identical at every thread count)",
                    {"p", "central_mc", "disjoint_mc", "joint_mc", "share_mc"});
  for (std::size_t row = 0; row * 4 < parallel_results.size(); ++row) {
    table.add_row({0.05 * static_cast<double>(row + 1),
                   parallel_results[row * 4].R_mc(),
                   parallel_results[row * 4 + 1].R_mc(),
                   parallel_results[row * 4 + 2].R_mc(),
                   parallel_results[row * 4 + 3].R_mc()});
  }
  table.print(std::cout);

  std::cout << "# serial:   " << serial_seconds << " s\n"
            << "# parallel: " << parallel_seconds << " s on " << threads
            << " threads\n"
            << "# speedup:  " << speedup << "x\n"
            << "# bit-identical: " << (identical ? "yes" : "NO") << "\n";

  emergence::bench::BenchReport json("sweep", runs, threads, "sweep-speedup",
                                     0x5eed);
  json.set_extra("serial_seconds", serial_seconds);
  json.set_extra("parallel_seconds", parallel_seconds);
  json.set_extra("speedup", speedup);
  json.set_extra("bit_identical", identical ? 1.0 : 0.0);
  json.add_table(table);
  json.finish(serial_seconds + parallel_seconds);

  return identical ? 0 : 1;
}
