// Flat O(1) routing of network events to concurrent sessions.
//
// The dispatcher installs the network's one message handler and its store
// observer, and routes by lookup: packages by the session nonce they
// carry (a 64-bit drbg draw, unique per session), store observations by
// the storage key the session registered for its pre-assigned layer keys.
// Every TimedReleaseSession is constructed with a dispatcher; it registers
// during send() and deregisters on retire()/destruction, so a fleet can
// recycle hundreds of thousands of session slots against one world at
// O(1) per event. The network is open — any node can address bytes at a
// holder — so traffic no live session claims is dropped and counted here,
// never fatal.
//
// The dispatcher must outlive both the network's event traffic and every
// session registered with it (the fleet owns all three; see
// workload/session_fleet.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "dht/network.hpp"

namespace emergence::core {

class TimedReleaseSession;

/// Reads the session nonce out of a serialized protocol package without a
/// full decode; nullopt when the payload is not a protocol package.
/// (Implemented in protocol.cpp beside the package codec so the wire
/// prefix constant has one home.)
std::optional<std::uint64_t> peek_session_nonce(BytesView payload);

/// Shared router for all dispatcher-managed sessions on one network.
class SessionDispatcher {
 public:
  explicit SessionDispatcher(dht::Network& network);

  SessionDispatcher(const SessionDispatcher&) = delete;
  SessionDispatcher& operator=(const SessionDispatcher&) = delete;

  std::size_t live_sessions() const { return by_nonce_.size(); }
  std::size_t tracked_storage_keys() const { return by_storage_key_.size(); }
  /// Protocol packages whose nonce matched no live session (late arrivals
  /// for retired sessions; harmless, but worth counting).
  std::uint64_t stray_packages() const {
    return stray_packages_.load(std::memory_order_relaxed);
  }
  /// Payloads that are not protocol packages at all (no session nonce to
  /// route by). Packages that carry a live nonce but fail to decode are
  /// counted by their session instead (SessionReport::malformed_packages).
  std::uint64_t malformed_packages() const {
    return malformed_packages_.load(std::memory_order_relaxed);
  }

 private:
  friend class TimedReleaseSession;

  void register_session(std::uint64_t nonce, TimedReleaseSession* session);
  void deregister_session(std::uint64_t nonce);
  void register_storage_key(const dht::NodeId& key,
                            TimedReleaseSession* session);
  void deregister_storage_key(const dht::NodeId& key);

  dht::Network& network_;
  std::unordered_map<std::uint64_t, TimedReleaseSession*> by_nonce_;
  std::unordered_map<dht::NodeId, TimedReleaseSession*, dht::NodeIdHash>
      by_storage_key_;
  /// Atomic: stray and malformed deliveries fire inside parallel executor
  /// windows (the routing maps themselves only mutate at serial barriers —
  /// send/retire).
  std::atomic<std::uint64_t> stray_packages_{0};
  std::atomic<std::uint64_t> malformed_packages_{0};
};

}  // namespace emergence::core
