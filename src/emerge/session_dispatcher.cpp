#include "emerge/session_dispatcher.hpp"

#include "common/error.hpp"
#include "emerge/protocol.hpp"

namespace emergence::core {

SessionDispatcher::SessionDispatcher(dht::Network& network)
    : network_(network) {
  network.set_default_message_handler(
      [this](const dht::NodeId&, const dht::NodeId& to, BytesView payload) {
        const std::optional<std::uint64_t> nonce = peek_session_nonce(payload);
        if (!nonce.has_value()) {
          ++malformed_packages_;
          return;
        }
        auto it = by_nonce_.find(*nonce);
        if (it == by_nonce_.end()) {
          ++stray_packages_;  // e.g. a late package for a retired session
          return;
        }
        it->second->handle_package_message(to, payload);
      });
  network.set_store_observer([this](const dht::NodeId& node,
                                    const dht::NodeId& key, BytesView value) {
    auto it = by_storage_key_.find(key);
    if (it != by_storage_key_.end()) it->second->observe_store(node, key, value);
  });
}

void SessionDispatcher::register_session(std::uint64_t nonce,
                                         TimedReleaseSession* session) {
  const bool inserted = by_nonce_.emplace(nonce, session).second;
  // A 64-bit drbg nonce collision across *live* sessions would misroute
  // packages; surface it instead (p ~ live^2 / 2^65, unreachable in
  // practice but cheap to guard).
  require(inserted, "SessionDispatcher: session nonce collision");
}

void SessionDispatcher::deregister_session(std::uint64_t nonce) {
  by_nonce_.erase(nonce);
}

void SessionDispatcher::register_storage_key(const dht::NodeId& key,
                                             TimedReleaseSession* session) {
  by_storage_key_[key] = session;
}

void SessionDispatcher::deregister_storage_key(const dht::NodeId& key) {
  by_storage_key_.erase(key);
}

}  // namespace emergence::core
