// Wire-protocol properties (src/service/wire.hpp):
//   * encode -> decode -> encode is byte-identical for EVERY message type
//     (the frames the loopback harness and a real UDP cluster exchange are
//     interchangeable);
//   * decode_frame never throws: each malformation class is rejected with
//     its own WireStats bucket and frames_received stays untouched.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "service/wire.hpp"

namespace emergence::service {
namespace {

dht::NodeId id_of(const std::string& text) {
  return dht::NodeId::hash_of_text(text);
}

Endpoint ep(std::uint32_t ip, std::uint16_t port) { return Endpoint{ip, port}; }

Peer peer(const std::string& name, std::uint16_t port) {
  return Peer{id_of(name), ep(0x7F000001, port)};
}

/// Every message type once, with every field populated asymmetrically so a
/// swapped codec read order cannot round-trip by accident.
std::vector<WireMessage> sample_messages() {
  SessionMeta meta;
  meta.session_nonce = 0xDEADBEEFCAFEF00Dull;
  meta.start_time = 1754650000.25;
  meta.config.emerging_time = 120.5;
  meta.config.kind = core::SchemeKind::kShare;
  meta.config.shape.k = 3;
  meta.config.shape.l = 4;
  meta.config.carriers_n = 5;
  meta.config.threshold_m = 2;
  meta.config.backend = crypto::CipherBackend::kAes256Ctr;
  meta.config.assembly_delay = 1.5;
  meta.receiver = ep(0x7F000001, 4242);

  std::vector<WireMessage> all;
  all.push_back(Ping{7, ep(0x7F000001, 9000)});
  all.push_back(Pong{7, peer("pong", 9001)});
  all.push_back(FindSuccessor{8, ep(0x7F000001, 9002), id_of("target"), 31});
  all.push_back(FindSuccessorReply{8, peer("succ", 9003)});
  all.push_back(GetPredecessor{9, ep(0x7F000001, 9004)});
  all.push_back(PredecessorReply{
      9, true, peer("pred", 9005), {peer("s1", 9006), peer("s2", 9007)}});
  all.push_back(Notify{peer("notifier", 9008)});
  all.push_back(Put{10, ep(0x7F000001, 9009), id_of("key"),
                    Bytes{1, 2, 3, 4, 5}, 12});
  all.push_back(PutAck{10});
  all.push_back(Get{11, ep(0x7F000001, 9010), id_of("key2"), 3});
  all.push_back(GetReply{11, true, Bytes{9, 8, 7}});
  all.push_back(StoreReplica{id_of("rep"), Bytes{42}});
  all.push_back(Package{meta, id_of("ring-point"), Bytes{0xAA, 0xBB, 0xCC}, 16});
  all.push_back(Deliver{Bytes{0x01, 0x02}});
  all.push_back(Submit{12, ep(0x7F000001, 9011), Bytes{0x11, 0x22},
                       ep(0x7F000001, 9012)});
  all.push_back(SubmitAck{12, false, "holding period too short", 77, 1.0, 2.0});
  all.push_back(Status{13, ep(0x7F000001, 9013)});
  StatusReply status;
  status.token = 13;
  status.self = peer("self", 9014);
  status.has_predecessor = true;
  status.predecessor = peer("pred", 9015);
  status.successors = {peer("a", 9016), peer("b", 9017), peer("c", 9018)};
  status.store_size = 21;
  status.holder_slots = 4;
  status.deliveries = 2;
  status.malformed_frames = 0;
  all.push_back(status);
  all.push_back(MetricsRequest{14, ep(0x7F000001, 9019)});
  MetricsResponse metrics;
  metrics.token = 14;
  metrics.entries = {{"emergence_wire_frames_sent_total", 42.0},
                     {"emergence_daemon_deliveries_total", 3.0},
                     {"emergence_store_size", 17.5}};
  all.push_back(metrics);
  return all;
}

TEST(Wire, EveryMessageTypeRoundTripsByteIdentical) {
  const auto messages = sample_messages();
  ASSERT_EQ(messages.size(), 20u);  // every MessageType covered once

  std::set<MessageType> seen;
  for (const WireMessage& message : messages) {
    seen.insert(message_type(message));
    const Bytes frame = encode_frame(message);

    WireStats stats;
    const auto decoded = decode_frame(frame, stats);
    ASSERT_TRUE(decoded.has_value())
        << "type " << static_cast<int>(message_type(message));
    EXPECT_EQ(stats.frames_received, 1u);
    EXPECT_EQ(stats.malformed_frames(), 0u);
    EXPECT_EQ(decoded->index(), message.index());

    // The round-trip contract: re-encoding reproduces the exact bytes.
    EXPECT_EQ(encode_frame(*decoded), frame)
        << "type " << static_cast<int>(message_type(message));
  }
  EXPECT_EQ(seen.size(), 20u);
}

TEST(Wire, FloatingPointFieldsSurviveExactly) {
  SubmitAck ack;
  ack.token = 1;
  ack.ok = true;
  ack.start_time = 0.1 + 0.2;  // not representable prettily
  ack.release_time = 1e-300;   // subnormal-adjacent
  const Bytes frame = encode_frame(WireMessage{ack});
  WireStats stats;
  const auto decoded = decode_frame(frame, stats);
  ASSERT_TRUE(decoded.has_value());
  const auto& back = std::get<SubmitAck>(*decoded);
  EXPECT_EQ(back.start_time, ack.start_time);  // bit-exact, not approximate
  EXPECT_EQ(back.release_time, ack.release_time);
}

TEST(Wire, RejectsBadMagic) {
  Bytes frame = encode_frame(WireMessage{PutAck{5}});
  frame[0] = 0x00;
  WireStats stats;
  EXPECT_FALSE(decode_frame(frame, stats).has_value());
  EXPECT_EQ(stats.bad_magic, 1u);
  EXPECT_EQ(stats.frames_received, 0u);
}

TEST(Wire, RejectsVersionMismatch) {
  Bytes frame = encode_frame(WireMessage{PutAck{5}});
  frame[1] = kWireVersion + 1;
  WireStats stats;
  EXPECT_FALSE(decode_frame(frame, stats).has_value());
  EXPECT_EQ(stats.version_mismatch, 1u);
}

TEST(Wire, RejectsUnknownType) {
  Bytes frame = encode_frame(WireMessage{PutAck{5}});
  frame[2] = 0;  // below every MessageType
  WireStats stats;
  EXPECT_FALSE(decode_frame(frame, stats).has_value());
  frame[2] = 200;  // above every MessageType
  EXPECT_FALSE(decode_frame(frame, stats).has_value());
  EXPECT_EQ(stats.unknown_type, 2u);
}

TEST(Wire, RejectsTruncatedFrames) {
  const Bytes frame = encode_frame(WireMessage{Pong{5, Peer{}}});
  WireStats stats;
  // Every proper prefix of the header+payload must be rejected, never read
  // out of bounds, and never throw.
  for (std::size_t len = 1; len < frame.size(); ++len) {
    const BytesView prefix(frame.data(), len);
    EXPECT_FALSE(decode_frame(prefix, stats).has_value()) << "len " << len;
  }
  EXPECT_EQ(stats.frames_received, 0u);
  EXPECT_EQ(stats.malformed_frames(),
            stats.bad_magic + stats.version_mismatch + stats.truncated_frames +
                stats.oversized_frames + stats.unknown_type +
                stats.malformed_payload);
  EXPECT_GT(stats.truncated_frames, 0u);
}

TEST(Wire, RejectsLengthLongerThanBody) {
  Bytes frame = encode_frame(WireMessage{PutAck{5}});
  frame[3] = static_cast<std::uint8_t>(frame[3] + 1);  // length += 1 (LE u32)
  WireStats stats;
  EXPECT_FALSE(decode_frame(frame, stats).has_value());
  EXPECT_EQ(stats.truncated_frames, 1u);
}

TEST(Wire, RejectsOversizedFrames) {
  Bytes frame = encode_frame(WireMessage{PutAck{5}});
  // Claim a payload beyond kMaxFramePayload in the length field.
  const std::uint32_t huge = kMaxFramePayload + 1;
  frame[3] = static_cast<std::uint8_t>(huge & 0xFF);
  frame[4] = static_cast<std::uint8_t>((huge >> 8) & 0xFF);
  frame[5] = static_cast<std::uint8_t>((huge >> 16) & 0xFF);
  frame[6] = static_cast<std::uint8_t>((huge >> 24) & 0xFF);
  WireStats stats;
  EXPECT_FALSE(decode_frame(frame, stats).has_value());
  EXPECT_EQ(stats.oversized_frames, 1u);
}

TEST(Wire, RejectsMalformedPayload) {
  // A Pong frame whose payload is garbage: codec failure, not a crash.
  Bytes frame = encode_frame(WireMessage{PutAck{5}});
  frame[2] = static_cast<std::uint8_t>(MessageType::kPong);
  WireStats stats;
  EXPECT_FALSE(decode_frame(frame, stats).has_value());
  EXPECT_EQ(stats.malformed_payload, 1u);
}

TEST(Wire, TrailingGarbageInPayloadIsMalformed) {
  Bytes frame = encode_frame(WireMessage{PutAck{5}});
  frame.push_back(0x55);  // extend the body...
  frame[3] = static_cast<std::uint8_t>(frame[3] + 1);  // ...and the length
  WireStats stats;
  EXPECT_FALSE(decode_frame(frame, stats).has_value());
  EXPECT_EQ(stats.malformed_payload, 1u);  // codec's expect_done fires
}

TEST(Wire, EncodeRejectsOverlongPayloadUpFront) {
  Deliver deliver;
  deliver.event = Bytes(kMaxFramePayload + 1, 0xAB);
  EXPECT_THROW(encode_frame(WireMessage{deliver}), PreconditionError);
}

TEST(Wire, EndpointParsesAndPrints) {
  const Endpoint e = Endpoint::parse("127.0.0.1:9000");
  EXPECT_EQ(e.ip, 0x7F000001u);
  EXPECT_EQ(e.port, 9000);
  EXPECT_EQ(e.to_string(), "127.0.0.1:9000");
  EXPECT_THROW(Endpoint::parse("localhost:9000"), PreconditionError);
  EXPECT_THROW(Endpoint::parse("1.2.3.4"), PreconditionError);
  EXPECT_THROW(Endpoint::parse("1.2.3.4:"), PreconditionError);
  EXPECT_THROW(Endpoint::parse("1.2.3.999:1"), PreconditionError);
  EXPECT_THROW(Endpoint::parse("1.2.3.4:70000"), PreconditionError);
}

TEST(Wire, SessionMetaDeadlineHelpers) {
  SessionMeta meta;
  meta.start_time = 100.0;
  meta.config.emerging_time = 60.0;
  meta.config.shape.l = 4;
  EXPECT_DOUBLE_EQ(meta.holding_period(), 15.0);
  EXPECT_DOUBLE_EQ(meta.release_time(), 160.0);
}

}  // namespace
}  // namespace emergence::service
