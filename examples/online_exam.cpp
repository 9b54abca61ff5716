// Online examination (the paper's running example, §II-B1).
//
// Exam questions are uploaded encrypted before the exam; the decryption key
// self-emerges in the DHT exactly at the exam start. A student controlling
// part of the DHT mounts the release-ahead attack to leak the questions
// early. This example measures *how early* the questions can leak:
//   * centralized storage (one holder) leaks the full two hours whenever
//     that holder is malicious;
//   * a planner-chosen node-joint geometry confines any leak to the final
//     holding period (minutes) -- the full-chain restore that the paper's
//     Rr metric counts almost never succeeds.
//
// Build & run:  ./build/examples/online_exam
#include <iostream>
#include <memory>

#include "cloud/cloud_store.hpp"
#include "dht/chord_network.hpp"
#include "emerge/planner.hpp"
#include "emerge/protocol.hpp"
#include "emerge/session_dispatcher.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace emergence;

struct ExamRun {
  bool leaked_over_an_hour_early = false;
  bool leaked_at_all = false;
  bool released_on_time = false;
};

ExamRun run_exam(core::PathShape shape, double malicious_fraction,
                 std::uint64_t seed) {
  sim::Simulator simulator;
  Rng rng(seed);
  dht::NetworkConfig net_config;
  net_config.run_maintenance = false;
  dht::ChordNetwork network(simulator, rng, net_config);
  network.bootstrap(200);
  cloud::CloudStore cloud;

  // The student coalition: a random subset of the DHT is malicious.
  core::Adversary adversary(core::Adversary::Config{
      core::AttackMode::kCovert, shape.k, /*share_threshold_m=*/1,
      crypto::CipherBackend::kChaCha20});
  Rng coalition_rng(seed ^ 0x5eed);
  for (const dht::NodeId& id : network.alive_ids()) {
    if (coalition_rng.chance(malicious_fraction))
      adversary.mark_malicious(id);
  }

  core::SessionConfig config;
  config.kind = core::SchemeKind::kJoint;
  config.shape = shape;
  config.emerging_time = 7200.0;  // exam starts in two hours

  core::SessionDispatcher dispatcher(network);
  core::TimedReleaseSession session(core::SessionArgs{
      &network, &cloud, &adversary, config, seed, &dispatcher});
  session.send(bytes_of("Q1: Prove Lemma 1 of Li & Palanisamy (ICDCS'17)."),
               "proctor-token");
  session.refresh_adversary_exposure();

  ExamRun result;
  // The student tries to restore the key every 10 minutes before the exam.
  for (double t = 60.0; t < config.emerging_time; t += 600.0) {
    simulator.run_until(session.start_time() + t);
    adversary.attempt_restore(simulator.now());
  }
  simulator.run();
  result.released_on_time = session.secret_released();
  if (adversary.earliest_secret_time().has_value()) {
    const double margin =
        session.release_time() - *adversary.earliest_secret_time();
    result.leaked_at_all = margin > 0.0;
    result.leaked_over_an_hour_early = margin > 3600.0;
  }
  return result;
}

}  // namespace

int main() {
  using namespace emergence;

  const double p = 0.25;  // the student controls 25% of the DHT
  const int trials = 25;
  std::cout << "online exam: questions sealed for 2 hours; student controls "
            << p * 100 << "% of the DHT; " << trials
            << " trials per configuration\n\n";

  // Centralized storage: a single holder knows the key for the whole wait.
  int central_big_leak = 0;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const ExamRun run = run_exam(core::PathShape{1, 1}, p, 100 + trial);
    central_big_leak += run.leaked_over_an_hour_early;
  }
  std::cout << "centralized (k=1, l=1):   leaked >1h before the exam in "
            << central_big_leak << "/" << trials
            << " trials (expected ~ p = 25%)\n";

  // The planner's choice for p = 0.25 (capped for the 200-node demo DHT).
  core::PlannerConfig planner;
  planner.node_budget = 60;
  const core::Plan plan = core::plan_joint(p, planner);
  int strong_big_leak = 0, strong_any_leak = 0, on_time = 0;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const ExamRun run = run_exam(plan.shape, p, 500 + trial);
    strong_big_leak += run.leaked_over_an_hour_early;
    strong_any_leak += run.leaked_at_all;
    on_time += run.released_on_time;
  }
  const double th_minutes = 7200.0 / static_cast<double>(plan.shape.l) / 60.0;
  std::cout << "planned (k=" << plan.shape.k << ", l=" << plan.shape.l
            << "):       leaked >1h early in " << strong_big_leak << "/"
            << trials << " trials; released on time in " << on_time << "/"
            << trials << "\n"
            << "                          (a malicious terminal holder may "
               "peek one holding period -- "
            << th_minutes << " min -- early: happened in " << strong_any_leak
            << "/" << trials << " trials)\n"
            << "analytic resilience of the planned geometry: R = " << plan.R()
            << "\n";

  return strong_big_leak <= central_big_leak ? 0 : 1;
}
