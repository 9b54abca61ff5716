// Secure voting (paper §I): encrypted ballots are collected during the
// polling period and must become countable only after the polls close --
// and they must not be *destroyable* by an adversary who wants the election
// to fail (the drop attack).
//
// One self-emerging key seals the ballot box. We compare the node-disjoint
// and node-joint schemes under a dropping coalition, reproducing §III-C's
// point: the same malicious holders that sever every disjoint path cannot
// cut the joint hop graph.
//
// Build & run:  ./build/examples/secure_voting
#include <iostream>
#include <memory>
#include <vector>

#include "cloud/cloud_store.hpp"
#include "dht/chord_network.hpp"
#include "emerge/protocol.hpp"
#include "emerge/session_dispatcher.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace emergence;

bool run_election(core::SchemeKind kind, double malicious_fraction,
                  std::uint64_t seed) {
  sim::Simulator simulator;
  Rng rng(seed);
  dht::NetworkConfig net_config;
  net_config.run_maintenance = false;
  dht::ChordNetwork network(simulator, rng, net_config);
  network.bootstrap(300);
  cloud::CloudStore cloud;

  core::SessionConfig config;
  config.kind = kind;
  config.shape = core::PathShape{3, 4};
  config.emerging_time = 12.0 * 3600.0;  // polls close after 12 hours

  core::Adversary adversary(core::Adversary::Config{
      core::AttackMode::kDropping, config.shape.k, 1,
      crypto::CipherBackend::kChaCha20});
  Rng coalition_rng(seed * 31 + 7);
  for (const dht::NodeId& id : network.alive_ids()) {
    if (coalition_rng.chance(malicious_fraction)) adversary.mark_malicious(id);
  }

  core::SessionDispatcher dispatcher(network);
  core::TimedReleaseSession session(core::SessionArgs{
      &network, &cloud, &adversary, config, seed, &dispatcher});

  // The "ballot box": votes encrypted under the self-emerging key.
  const std::string ballots = "alice:A;bob:B;carol:A;dave:A;erin:B";
  session.send(bytes_of(ballots), "electoral-commission");

  simulator.run();
  if (!session.secret_released()) return false;
  const auto tally = session.receiver_decrypt("electoral-commission");
  return tally.has_value() && string_of(*tally) == ballots;
}

}  // namespace

int main() {
  using namespace emergence;

  const double p = 0.20;  // a fifth of the DHT wants the election to fail
  const int trials = 30;
  std::cout << "secure voting: ballots sealed for 12h; " << p * 100
            << "% of nodes mount a drop attack\n\n";

  int disjoint_ok = 0, joint_ok = 0;
  for (int trial = 0; trial < trials; ++trial) {
    disjoint_ok += run_election(core::SchemeKind::kDisjoint, p,
                                static_cast<std::uint64_t>(trial) + 1000);
    joint_ok += run_election(core::SchemeKind::kJoint, p,
                             static_cast<std::uint64_t>(trial) + 1000);
  }

  std::cout << "node-disjoint (k=3, l=4): counted " << disjoint_ok << "/"
            << trials << " elections\n";
  std::cout << "node-joint    (k=3, l=4): counted " << joint_ok << "/"
            << trials << " elections\n\n";
  std::cout << "the joint scheme turns " << trials
            << " fragile paths into a braided hop graph: an adversary must "
               "own a full column to cut it (paper eq. 3 vs eq. 2).\n";

  return joint_ok >= disjoint_ok ? 0 : 1;
}
