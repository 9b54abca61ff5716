// Digital time capsule: a long-horizon release under heavy churn.
//
// The paper's §IV-B2 headline: "if the average lifetime of a DHT node is
// one month, the key share routing scheme can successfully hide the secret
// key for 5 months" (alpha = 5). Pre-assigned-key schemes fail at that
// horizon because every holder death hands the stored layer key to a fresh
// (possibly malicious) node; the key-share scheme never stores a key longer
// than one holding period.
//
// This example runs the full protocol stack (real Chord churn via the
// ChurnDriver, real Shamir shares) with T = 5 node lifetimes and compares
// the joint scheme against key-share routing.
//
// Build & run:  ./build/examples/time_capsule
#include <iostream>
#include <memory>

#include "cloud/cloud_store.hpp"
#include "dht/chord_network.hpp"
#include "dht/churn_driver.hpp"
#include "emerge/protocol.hpp"
#include "emerge/session_dispatcher.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace emergence;

struct CapsuleOutcome {
  int opened = 0;
  int lost = 0;
};

CapsuleOutcome bury_capsules(core::SchemeKind kind, int trials) {
  // One virtual "month" is scaled to an hour of simulated time so that the
  // DHT's periodic maintenance (stabilize + replica repair -- the paper's
  // replication mechanism that rescues *stored* layer keys, at the price of
  // exposing them to replacement nodes) stays tractable.
  const double month = 3600.0;
  CapsuleOutcome outcome;
  for (int trial = 0; trial < trials; ++trial) {
    sim::Simulator simulator;
    Rng rng(static_cast<std::uint64_t>(trial) + 777);
    dht::NetworkConfig net_config;
    net_config.run_maintenance = true;
    dht::ChordNetwork network(simulator, rng, net_config);
    network.bootstrap(300);
    cloud::CloudStore cloud;

    dht::ChurnConfig churn_config;
    churn_config.mean_lifetime = month;
    churn_config.replace_dead_nodes = true;
    dht::ChurnDriver churn(network, churn_config);

    core::SessionConfig config;
    config.kind = kind;
    config.emerging_time = 5.0 * month;
    if (kind == core::SchemeKind::kShare) {
      // Churn-tuned geometry (what plan_share computes for alpha = 5 on a
      // ~120-node path budget): short holds, wide carrier columns, and a
      // threshold that absorbs carrier deaths.
      config.shape = core::PathShape{4, 8};
      config.carriers_n = 15;  // share carriers per column
      config.threshold_m = 3;  // any 3 of 15 reconstruct a layer key
    } else {
      config.shape = core::PathShape{3, 5};
    }

    core::SessionDispatcher dispatcher(network);
    core::TimedReleaseSession session(core::SessionArgs{
        &network, &cloud, nullptr, config,
        static_cast<std::uint64_t>(trial), &dispatcher});
    session.send(bytes_of("to be opened in five months"), "heir-token");
    churn.start();
    simulator.run_until(session.release_time() + 10.0);
    churn.stop();

    if (session.secret_released() &&
        session.receiver_decrypt("heir-token").has_value()) {
      ++outcome.opened;
    } else {
      ++outcome.lost;
    }
  }
  return outcome;
}

}  // namespace

int main() {
  using namespace emergence;
  const int trials = 15;
  std::cout << "time capsule: T = 5 mean node lifetimes of churn, "
               "full protocol stack, "
            << trials << " trials per scheme\n"
            << "(note: even honest churn kills in-transit packages; the "
               "share scheme's m-of-n thresholds absorb carrier deaths)\n\n";

  const CapsuleOutcome joint = bury_capsules(core::SchemeKind::kJoint, trials);
  std::cout << "node-joint  (k=3, l=5):           opened " << joint.opened
            << "/" << trials << "\n";

  const CapsuleOutcome share = bury_capsules(core::SchemeKind::kShare, trials);
  std::cout << "key-share   (k=4, l=8, 3-of-15):  opened " << share.opened
            << "/" << trials << "\n\n";

  std::cout << "the key-share scheme also wins on confidentiality: no "
               "stored layer key outlives a holding period, so churn "
               "replacements learn nothing (paper §III-D).\n";
  return 0;
}
