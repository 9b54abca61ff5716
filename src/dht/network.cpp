#include "dht/network.hpp"

#include <utility>

#include "common/error.hpp"
#include "sim/execution_context.hpp"

namespace emergence::dht {

Network::Network(sim::Simulator& simulator, Rng& rng, TransportModel transport)
    : simulator_(simulator), rng_(rng), transport_(std::move(transport)) {
  transport_.validate();
}

Network::Seams Network::seams() {
  sim::ExecutionContext* ctx = sim::ExecutionContext::active_on(&simulator_);
  if (ctx == nullptr) {
    return {rng_, transport_stats_, lookup_stats_, trace_shard_, false};
  }
  return {ctx->rng != nullptr ? *ctx->rng : rng_,
          ctx->transport_stats != nullptr ? *ctx->transport_stats
                                          : transport_stats_,
          ctx->lookup_stats != nullptr ? *ctx->lookup_stats : lookup_stats_,
          ctx->trace != nullptr ? ctx->trace : trace_shard_, true};
}

void Network::send_message(const NodeId& from, const NodeId& to,
                           SharedBytes payload) {
  require(payload != nullptr, "Network::send_message: null payload");
  const Seams s = seams();
  transport_.send(
      simulator_, s.rng, s.transport_stats, from, to,
      [this, from, to, payload = std::move(payload)]() {
        if (!is_alive(to)) return;  // dead destination: lost
        if (handler_) handler_(from, to, *payload);
      },
      s.trace);
}

void Network::send_message_routed(const NodeId& from, const NodeId& ring_point,
                                  SharedBytes payload) {
  require(payload != nullptr, "Network::send_message_routed: null payload");
  const Seams s = seams();
  transport_.send(
      simulator_, s.rng, s.transport_stats, from, ring_point,
      [this, from, ring_point, payload = std::move(payload)]() {
        const std::optional<NodeId> owner = live_owner(ring_point);
        if (owner.has_value() && handler_) handler_(from, *owner, *payload);
      },
      s.trace);
}

}  // namespace emergence::dht
