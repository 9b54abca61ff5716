// The api facade (src/api/api.hpp): SubmitRequest/EmergeEvent codecs, the
// in-process session's construction preconditions, and the LocalClient
// end-to-end over a simulated world.
#include <gtest/gtest.h>

#include <memory>

#include "api/api.hpp"
#include "cloud/cloud_store.hpp"
#include "common/error.hpp"
#include "common/serial.hpp"
#include "dht/chord_network.hpp"
#include "emerge/session_dispatcher.hpp"
#include "sim/simulator.hpp"

namespace emergence::api {
namespace {

struct World {
  sim::Simulator sim;
  Rng rng{2024};
  dht::NetworkConfig net_config;
  std::unique_ptr<dht::ChordNetwork> net;
  std::unique_ptr<core::SessionDispatcher> dispatcher;
  cloud::CloudStore cloud;

  explicit World(std::size_t nodes = 64) {
    net_config.run_maintenance = false;
    net = std::make_unique<dht::ChordNetwork>(sim, rng, net_config);
    net->bootstrap(nodes);
    dispatcher = std::make_unique<core::SessionDispatcher>(*net);
  }
};

SubmitRequest sample_request() {
  SubmitRequest request;
  request.message = bytes_of("the emerged secret");
  request.receiver_token = "bob-token";
  request.scheme = core::SchemeKind::kShare;
  request.shape = core::PathShape{2, 3};
  request.carriers_n = 3;
  request.threshold_m = 2;
  request.emerging_time = 3600.0;
  request.assembly_delay = 0.5;
  request.backend = crypto::CipherBackend::kAes256Ctr;
  request.seed = 0x1234;
  return request;
}

TEST(ApiCodec, SubmitRequestRoundTripsByteIdentical) {
  const SubmitRequest request = sample_request();
  const Bytes encoded = encode_submit_request(request);
  const SubmitRequest back = decode_submit_request(encoded);
  EXPECT_EQ(back.message, request.message);
  EXPECT_EQ(back.receiver_token, request.receiver_token);
  EXPECT_EQ(back.scheme, request.scheme);
  EXPECT_EQ(back.shape.k, request.shape.k);
  EXPECT_EQ(back.shape.l, request.shape.l);
  EXPECT_EQ(back.carriers_n, request.carriers_n);
  EXPECT_EQ(back.threshold_m, request.threshold_m);
  EXPECT_EQ(back.emerging_time, request.emerging_time);
  EXPECT_EQ(back.assembly_delay, request.assembly_delay);
  EXPECT_EQ(back.backend, request.backend);
  EXPECT_EQ(back.seed, request.seed);
  EXPECT_EQ(encode_submit_request(back), encoded);
}

TEST(ApiCodec, EmergeEventRoundTripsByteIdentical) {
  EmergeEvent event;
  event.session_nonce = 0xABCDEF0123456789ull;
  event.release_time = 1754650123.5;
  event.delivery_time = 1754650123.875;
  event.secret = bytes_of("released");
  const Bytes encoded = encode_emerge_event(event);
  const EmergeEvent back = decode_emerge_event(encoded);
  EXPECT_EQ(back.session_nonce, event.session_nonce);
  EXPECT_EQ(back.release_time, event.release_time);
  EXPECT_EQ(back.delivery_time, event.delivery_time);
  EXPECT_EQ(back.secret, event.secret);
  EXPECT_EQ(encode_emerge_event(back), encoded);
}

TEST(ApiCodec, MalformedPayloadsThrowInsteadOfCrashing) {
  EXPECT_THROW(decode_submit_request(Bytes{}), Error);
  EXPECT_THROW(decode_emerge_event(Bytes{1, 2, 3}), Error);
  // A valid encoding with a corrupted scheme byte must be rejected.
  Bytes encoded = encode_submit_request(sample_request());
  Bytes truncated(encoded.begin(), encoded.end() - 1);
  EXPECT_THROW(decode_submit_request(truncated), Error);
}

TEST(ApiCodec, SubmitRequestResolvesToSessionConfig) {
  const SubmitRequest request = sample_request();
  const core::SessionConfig config = request.to_config();
  EXPECT_EQ(config.kind, request.scheme);
  EXPECT_EQ(config.shape.k, request.shape.k);
  EXPECT_EQ(config.shape.l, request.shape.l);
  EXPECT_EQ(config.carriers_n, request.carriers_n);
  EXPECT_EQ(config.threshold_m, request.threshold_m);
  EXPECT_EQ(config.emerging_time, request.emerging_time);
}

TEST(SessionBuilder, RejectsMissingWorld) {
  EXPECT_THROW(core::TimedReleaseSession(core::SessionArgs{}),
               PreconditionError);
  // Network and cloud alone are not enough: the dispatcher is required.
  World world;
  core::SessionArgs args;
  args.network = world.net.get();
  args.cloud = &world.cloud;
  EXPECT_THROW(core::TimedReleaseSession{args}, PreconditionError);
}

TEST(LocalClient, SubmitPollAndDecryptEndToEnd) {
  World world;
  EXPECT_THROW(LocalClient(*world.net, world.cloud, nullptr),
               PreconditionError);
  LocalClient client(*world.net, world.cloud, world.dispatcher.get());

  SubmitRequest request;
  request.message = bytes_of("meet me at the bridge");
  request.receiver_token = "bob-token";
  request.scheme = core::SchemeKind::kJoint;
  request.shape = core::PathShape{2, 3};
  request.emerging_time = 3600.0;
  request.seed = 7;

  const SubmitReceipt receipt = client.submit(request);
  EXPECT_NE(receipt.session_nonce, 0u);
  EXPECT_DOUBLE_EQ(receipt.release_time,
                   receipt.start_time + request.emerging_time);

  // Nothing before tr.
  world.sim.run_until(receipt.release_time - 1.0);
  EXPECT_FALSE(client.poll(receipt.session_nonce).has_value());

  world.sim.run_until(receipt.release_time + 1.0);
  const auto event = client.poll(receipt.session_nonce);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->session_nonce, receipt.session_nonce);
  EXPECT_DOUBLE_EQ(event->delivery_time, receipt.release_time);

  const auto plaintext =
      client.receiver_decrypt(receipt.session_nonce, "bob-token");
  ASSERT_TRUE(plaintext.has_value());
  EXPECT_EQ(*plaintext, bytes_of("meet me at the bridge"));

  EXPECT_FALSE(client.poll(receipt.session_nonce + 1).has_value());
  EXPECT_EQ(client.find(receipt.session_nonce + 1), nullptr);
  ASSERT_NE(client.find(receipt.session_nonce), nullptr);
}

// A share request that leaves carriers_n and threshold_m at 0 means n = k+1
// and m = k, on the in-process engine exactly as on the wire.
TEST(LocalClient, ShareRequestWithDefaultParametersEmerges) {
  World world;
  LocalClient client(*world.net, world.cloud, world.dispatcher.get());

  SubmitRequest request;
  request.message = bytes_of("shares by default");
  request.receiver_token = "bob-token";
  request.scheme = core::SchemeKind::kShare;
  request.shape = core::PathShape{2, 3};
  request.emerging_time = 3600.0;
  request.seed = 11;

  const SubmitReceipt receipt = client.submit(request);
  const core::TimedReleaseSession* session =
      client.find(receipt.session_nonce);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->config().carriers_n, 3u);
  EXPECT_EQ(session->config().threshold_m, 2u);

  world.sim.run_until(receipt.release_time + 1.0);
  const auto event = client.poll(receipt.session_nonce);
  ASSERT_TRUE(event.has_value());
  EXPECT_DOUBLE_EQ(event->delivery_time, receipt.release_time);
  const auto plaintext =
      client.receiver_decrypt(receipt.session_nonce, "bob-token");
  ASSERT_TRUE(plaintext.has_value());
  EXPECT_EQ(*plaintext, bytes_of("shares by default"));
}

}  // namespace
}  // namespace emergence::api
