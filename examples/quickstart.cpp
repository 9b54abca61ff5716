// Quickstart: send a self-emerging message through a simulated DHT.
//
// Demonstrates the whole pipeline of the paper's Fig. 1 in ~80 lines:
//   1. build a Chord network (the DHT entity),
//   2. a sender encrypts a message, uploads the ciphertext to the cloud and
//      routes the key through node-joint multipath onion paths,
//   3. virtual time passes; holders peel/hold/forward,
//   4. at the release time tr the key self-emerges and the receiver
//      decrypts -- and not a moment earlier.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>
#include <memory>

#include "cloud/cloud_store.hpp"
#include "dht/chord_network.hpp"
#include "emerge/protocol.hpp"
#include "emerge/session_dispatcher.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace emergence;

  // -- the world: a 128-node Chord DHT plus an always-available cloud ------
  sim::Simulator simulator;
  Rng rng(/*seed=*/2017);
  dht::NetworkConfig net_config;
  net_config.run_maintenance = false;  // keep the walkthrough deterministic
  dht::ChordNetwork network(simulator, rng, net_config);
  network.bootstrap(128);
  cloud::CloudStore cloud;

  std::cout << "DHT up: " << network.alive_count() << " nodes\n";

  // -- the sender: k = 2 onion paths, l = 3 holders each, T = 1 hour -------
  core::SessionConfig config;
  config.kind = core::SchemeKind::kJoint;
  config.shape = core::PathShape{2, 3};
  config.emerging_time = 3600.0;

  core::SessionDispatcher dispatcher(network);  // routes packages by nonce
  core::TimedReleaseSession session(
      core::SessionArgs{&network, &cloud, /*adversary=*/nullptr, config,
                        /*seed=*/42, &dispatcher});
  const std::string message =
      "Dear Bob -- this message was sealed at ts and could not be read "
      "before tr. -- Alice";
  const cloud::BlobId blob = session.send(bytes_of(message), "bob-token");

  std::cout << "message sealed; ciphertext blob " << blob.substr(0, 16)
            << "... uploaded to the cloud\n"
            << "release time tr = ts + " << config.emerging_time
            << "s; holding period th = " << session.holding_period()
            << "s per column\n";

  // -- before tr: the ciphertext is public, the key is hidden --------------
  simulator.run_until(session.release_time() - 60.0);
  std::cout << "\nt = " << simulator.now() << "s (one minute before tr):\n";
  std::cout << "  cloud download ok: "
            << (cloud.download(blob, "bob-token").status ==
                cloud::CloudStatus::kOk)
            << "  |  key released: " << session.secret_released() << "\n";
  if (session.secret_released() || session.receiver_decrypt("bob-token")) {
    std::cerr << "key emerged before tr -- this should not happen\n";
    return 1;
  }

  // -- at tr: the key self-emerges ------------------------------------------
  simulator.run_until(session.release_time() + 1.0);
  std::cout << "\nt = " << simulator.now() << "s (just past tr):\n";
  if (!session.secret_released() || !session.first_delivery_time()) {
    std::cerr << "key did not emerge at tr -- this should not happen\n";
    return 1;
  }
  std::cout << "  key released: " << session.secret_released()
            << " (delivered at t = " << *session.first_delivery_time()
            << ")\n";

  const auto plaintext = session.receiver_decrypt("bob-token");
  if (!plaintext.has_value()) {
    std::cerr << "decryption failed -- this should not happen\n";
    return 1;
  }
  std::cout << "  receiver decrypts: \"" << string_of(*plaintext) << "\"\n";

  if (string_of(*plaintext) != message) {
    std::cerr << "decrypted text does not match the original message\n";
    return 1;
  }

  std::cout << "\npackets sent " << session.report().packages_sent
            << ", terminal deliveries " << session.report().deliveries
            << ", stuck holders " << session.report().holders_stuck << "\n";
  std::cout << "QUICKSTART OK\n";
  return 0;
}
