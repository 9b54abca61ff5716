// The engine-agnostic protocol core (src/emerge/protocol.hpp), walked by
// hand: the sender's plan, then every holder's assemble, peel and forward.
// A std::map stands in for DHT storage and routing is a direct hand-off,
// so what is checked is the protocol both engines share, not a substrate.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "common/serial.hpp"
#include "crypto/drbg.hpp"
#include "emerge/protocol.hpp"

namespace emergence::core {
namespace {

constexpr std::uint64_t kNonce = 0x5E55;

SessionConfig config_for(SchemeKind kind) {
  SessionConfig config;
  config.kind = kind;
  config.shape = PathShape{2, 3};
  if (kind == SchemeKind::kShare) {
    config.carriers_n = 3;
    config.threshold_m = 2;
  }
  return with_share_defaults(config);
}

/// One planned session: ring points drawn directly (as the daemon does),
/// the sender's plan, and the pre-assigned keys in a local "DHT".
struct Planned {
  SessionConfig config;
  std::vector<std::vector<dht::NodeId>> ring_points;
  SenderPlan plan;
  std::map<dht::NodeId, Bytes> store;

  Planned(SchemeKind kind, const Bytes& payload) : config(config_for(kind)) {
    crypto::Drbg drbg(42);
    ring_points.resize(config.shape.l);
    for (std::size_t c = 1; c <= config.shape.l; ++c) {
      ring_points[c - 1].resize(column_holders(config.kind, config.shape,
                                               config.carriers_n, c));
      for (dht::NodeId& point : ring_points[c - 1])
        point = dht::NodeId::from_bytes(drbg.bytes(dht::kIdBytes));
    }
    plan = plan_sender(config, ring_points, payload, drbg);
    for (const KeyAssignment& key : plan.keys) store[key.storage_key] = key.key;
  }

  std::function<const Bytes*()> loader(std::uint16_t column,
                                       std::uint16_t holder) const {
    return [this, column, holder]() -> const Bytes* {
      const auto it = store.find(ring_points[column - 1][holder]);
      return it == store.end() ? nullptr : &it->second;
    };
  }

  /// Assembles `packages` into the slots of their column.
  std::map<std::uint16_t, HolderSlot> assemble(
      std::uint16_t column, std::vector<OutgoingPackage> packages) const {
    std::map<std::uint16_t, HolderSlot> slots;
    std::map<std::uint16_t, int> first_packages;
    for (OutgoingPackage& out : packages) {
      ProtocolPackage pkg = decode_protocol_package(out.package);
      EXPECT_EQ(pkg.session_nonce, kNonce);
      EXPECT_EQ(pkg.column, column);
      // Routing target and slot identity agree.
      EXPECT_EQ(out.ring_point, ring_points[column - 1][pkg.holder_index]);
      const std::uint16_t holder = pkg.holder_index;
      if (slots[holder].assemble(std::move(pkg))) ++first_packages[holder];
    }
    for (const auto& [holder, firsts] : first_packages)
      EXPECT_EQ(firsts, 1) << "holder " << holder;
    return slots;
  }
};

TEST(ProtocolCore, EveryHolderAssemblesPeelsAndForwardsToTheSecret) {
  const Bytes payload = bytes_of("the planned secret");
  for (const SchemeKind kind :
       {SchemeKind::kDisjoint, SchemeKind::kJoint, SchemeKind::kShare}) {
    SCOPED_TRACE(to_string(kind));
    const Planned session(kind, payload);
    const SessionConfig& config = session.config;
    const std::uint16_t l = static_cast<std::uint16_t>(config.shape.l);
    // Disjoint/joint pre-assign every column's keys, share only column 1's.
    EXPECT_EQ(session.plan.keys.size(),
              kind == SchemeKind::kShare ? 3u : config.shape.holder_count());

    std::vector<OutgoingPackage> in_flight = launch_packages(
        kNonce, session.ring_points[0], session.plan.onion);
    std::size_t recovered = 0;
    for (std::uint16_t column = 1; column <= l; ++column) {
      const auto slots = session.assemble(column, std::move(in_flight));
      in_flight.clear();
      ASSERT_EQ(slots.size(), session.ring_points[column - 1].size());
      for (const auto& [holder, slot] : slots) {
        const std::optional<PeeledLayer> peeled = peel(
            config, column, holder, slot, session.loader(column, holder));
        ASSERT_TRUE(peeled.has_value())
            << "column " << column << " holder " << holder;
        if (column == l) {
          EXPECT_TRUE(peeled->content.terminal());
          EXPECT_EQ(peeled->content.terminal_payload, payload);
          ++recovered;
          continue;
        }
        std::vector<OutgoingPackage> out =
            forward_packages(config, kNonce, column, holder, *peeled);
        // Fan-out: one package per disjoint path, k per joint holder, and
        // one targeted package per next-column holder for the share scheme.
        const std::size_t next_holders = session.ring_points[column].size();
        EXPECT_EQ(out.size(), kind == SchemeKind::kDisjoint ? 1u
                              : kind == SchemeKind::kJoint  ? config.shape.k
                                                            : next_holders);
        for (const OutgoingPackage& pkg : out) {
          EXPECT_EQ(decode_protocol_package(pkg.package).shares.size(),
                    kind == SchemeKind::kShare ? 1u : 0u);
        }
        in_flight.insert(in_flight.end(), out.begin(), out.end());
      }
    }
    EXPECT_EQ(recovered, config.shape.k);
  }
}

TEST(ProtocolCore, PeelReportsStuckWithoutAUsableKey) {
  const Bytes payload = bytes_of("stuck");

  // Column 1 of a joint session reads its pre-assigned key from storage.
  const Planned joint(SchemeKind::kJoint, payload);
  const auto column1 = joint.assemble(
      1, launch_packages(kNonce, joint.ring_points[0], joint.plan.onion));
  const HolderSlot& slot = column1.at(0);
  ASSERT_TRUE(peel(joint.config, 1, 0, slot, joint.loader(1, 0)).has_value());
  const Bytes short_key(16, 0x11);
  const Bytes wrong_key(32, 0x22);
  EXPECT_FALSE(peel(joint.config, 1, 0, slot, [] {
                 return static_cast<const Bytes*>(nullptr);
               }).has_value());
  EXPECT_FALSE(
      peel(joint.config, 1, 0, slot, [&] { return &short_key; }).has_value());
  EXPECT_FALSE(
      peel(joint.config, 1, 0, slot, [&] { return &wrong_key; }).has_value());

  // Column 2 of a share session combines m = 2 shares; m - 1 is stuck.
  const Planned share(SchemeKind::kShare, payload);
  const auto share1 = share.assemble(
      1, launch_packages(kNonce, share.ring_points[0], share.plan.onion));
  const std::optional<PeeledLayer> first =
      peel(share.config, 1, 0, share1.at(0), share.loader(1, 0));
  ASSERT_TRUE(first.has_value());
  std::vector<OutgoingPackage> one_share;
  for (OutgoingPackage& out :
       forward_packages(share.config, kNonce, 1, 0, *first)) {
    if (decode_protocol_package(out.package).holder_index == 0)
      one_share.push_back(std::move(out));
  }
  const auto short_slot = share.assemble(2, std::move(one_share));
  ASSERT_EQ(short_slot.at(0).shares.size(), 1u);
  EXPECT_FALSE(peel(share.config, 2, 0, short_slot.at(0), share.loader(2, 0))
                   .has_value());
}

TEST(ProtocolCore, ShareDefaultsKeyIdsAndDeadlines) {
  SessionConfig share;
  share.kind = SchemeKind::kShare;
  share.shape = PathShape{3, 4};
  const SessionConfig resolved = with_share_defaults(share);
  EXPECT_EQ(resolved.carriers_n, 4u);  // k + 1
  EXPECT_EQ(resolved.threshold_m, 3u);  // k
  EXPECT_FALSE(config_error(resolved).has_value());
  share.threshold_m = 9;  // > carriers_n
  EXPECT_TRUE(config_error(with_share_defaults(share)).has_value());

  SessionConfig joint;
  joint.shape = PathShape{0, 3};
  EXPECT_TRUE(config_error(with_share_defaults(joint)).has_value());
  joint.shape = PathShape{2, 3};
  EXPECT_EQ(with_share_defaults(joint).carriers_n, 2u);  // k per column

  // Onion slots of a pre-assigned column share K_c; carriers and every
  // share-scheme holder own their key.
  EXPECT_EQ(layer_key_id(joint, 2, 1),
            (LayerKeyId{2, LayerKeyId::kSharedHolder}));
  EXPECT_EQ(layer_key_id(resolved, 2, 1), (LayerKeyId{2, 1}));

  // Holders act at ts + c * th, terminal holders at tr; late ones at now.
  joint.emerging_time = 60.0;
  EXPECT_EQ(hold_until(joint, 100.0, 1, false, 105.0), 120.0);
  EXPECT_EQ(hold_until(joint, 100.0, 3, true, 105.0), 160.0);
  EXPECT_EQ(hold_until(joint, 100.0, 1, false, 130.0), 130.0);
}

}  // namespace
}  // namespace emergence::core
