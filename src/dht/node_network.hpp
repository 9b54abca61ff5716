// The node bookkeeping both DHT backends share, written once over the node
// type: the arena, the id map, the live set and fresh-id minting, plus the
// node-addressed storage of the Network contract.
//
// Nodes live in a deque arena: stable addresses, one allocation batch, and
// dead nodes stay (peers probe their liveness); a rejoining id reuses its
// slot through Node::reset_for_rejoin(), so long churned worlds do not
// accrete one dead instance per rejoin. The id map serves the entry points
// addressed by id. The live set is a swap-pop vector pair (O(1) uniform
// sampling) plus a LiveRingIndex (O(log n) ring-successor and XOR-closest
// queries), and a node's transport zone is primed as it goes live, from
// serial code, so zone_of stays a pure read when domains sample latencies
// in parallel.
//
// A class template rather than a node base class, so that ChordNode's
// field layout stays what routing was tuned for. Node provides id(),
// alive(), storage() and reset_for_rejoin().
#pragma once

#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "dht/network.hpp"
#include "dht/ring_index.hpp"

namespace emergence::dht {

template <class Node>
class NodeNetwork : public Network {
 public:
  /// The node with `id`, alive or dead; nullptr when never allocated.
  Node* node(const NodeId& id) { return find(id); }
  const Node* node(const NodeId& id) const { return find(id); }
  /// node() when it is alive, else nullptr (the RPC liveness guard).
  Node* live_node(const NodeId& id) {
    Node* n = find(id);
    return n != nullptr && n->alive() ? n : nullptr;
  }

  bool is_alive(const NodeId& id) const final {
    const Node* n = find(id);
    return n != nullptr && n->alive();
  }
  bool store_on(const NodeId& id, const NodeId& key,
                SharedBytes value) final {
    require(value != nullptr, "Network::store_on: null value");
    Node* n = live_node(id);
    if (n == nullptr) return false;
    store_at(*n, key, std::move(value));
    return true;
  }
  using Network::store_on;
  SharedBytes load_from(const NodeId& id, const NodeId& key) final {
    Node* n = live_node(id);
    return n == nullptr ? nullptr : n->storage().get(key);
  }

  const std::vector<NodeId>& alive_ids() const final { return alive_ids_; }
  std::size_t alive_count() const final { return alive_ids_.size(); }

 protected:
  /// Fresh ids hash "<id_prefix><counter>".
  NodeNetwork(sim::Simulator& simulator, Rng& rng, TransportModel transport,
              std::string id_prefix)
      : Network(simulator, rng, std::move(transport)),
        id_prefix_(std::move(id_prefix)) {}

  /// Live nodes, in lockstep with alive_ids().
  const std::vector<Node*>& alive_nodes() const { return alive_nodes_; }
  const LiveRingIndex& live_ring() const { return live_ring_; }

  /// Uniformly random live node. Session lookups draw the pick from the
  /// executing session's own stream (domain-count invariant); code outside
  /// any execution context keeps the shared network stream.
  Node& random_live_node() {
    require(!alive_nodes_.empty(), "Network: no live nodes");
    return *alive_nodes_[seams().rng.index(alive_nodes_.size())];
  }

  /// Writes `value` into `node`'s storage and reports it to the observer.
  void store_at(Node& node, const NodeId& key, SharedBytes value) {
    node.storage().put(key, value, simulator().now());
    notify_store(node.id(), key, *value);
  }

  /// Sizes the maps for a bootstrap of `count` nodes; the network must not
  /// have allocated any node yet.
  void reserve_nodes(std::size_t count) {
    require(nodes_.empty(), "Network::bootstrap: network already built");
    nodes_.reserve(count);
    alive_index_.reserve(count);
    alive_ids_.reserve(count);
    alive_nodes_.reserve(count);
  }

  /// hash("<id_prefix><counter>"), redrawn on the (astronomically unlikely)
  /// collision with an id the arena already holds.
  NodeId fresh_node_id() {
    for (;;) {
      const NodeId id =
          NodeId::hash_of_text(id_prefix_ + std::to_string(node_counter_++));
      if (nodes_.find(id) == nodes_.end()) return id;
    }
  }

  /// The arena slot for `id`: a dead node's slot reset for its rejoin, else
  /// a node constructed in place from `args`.
  template <class... Args>
  Node& allocate_node(const NodeId& id, Args&&... args) {
    auto it = nodes_.find(id);
    if (it != nodes_.end()) {
      it->second->reset_for_rejoin();
      return *it->second;
    }
    Node& fresh = arena_.emplace_back(std::forward<Args>(args)...);
    nodes_[id] = &fresh;
    return fresh;
  }

  void register_alive(Node& node) {
    const NodeId& id = node.id();
    alive_index_[id] = alive_ids_.size();
    alive_ids_.push_back(id);
    alive_nodes_.push_back(&node);
    live_ring_.insert(id);
    prime_zone(id);
  }

  /// No-op when `node` is not live. Reads the node's own copy of its id:
  /// callers may pass an id that aliases alive_ids(), whose slot the
  /// swap-pop overwrites.
  void unregister_alive(const Node& node) {
    const NodeId& id = node.id();
    auto it = alive_index_.find(id);
    if (it == alive_index_.end()) return;
    live_ring_.erase(id);
    const std::size_t pos = it->second;
    const NodeId last = alive_ids_.back();
    alive_ids_[pos] = last;
    alive_nodes_[pos] = alive_nodes_.back();
    alive_index_[last] = pos;
    alive_ids_.pop_back();
    alive_nodes_.pop_back();
    alive_index_.erase(it);
  }

 private:
  Node* find(const NodeId& id) const {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? nullptr : it->second;
  }

  std::string id_prefix_;
  std::deque<Node> arena_;
  std::unordered_map<NodeId, Node*, NodeIdHash> nodes_;
  std::vector<NodeId> alive_ids_;
  std::vector<Node*> alive_nodes_;
  std::unordered_map<NodeId, std::size_t, NodeIdHash> alive_index_;
  LiveRingIndex live_ring_;
  std::uint64_t node_counter_ = 0;
};

}  // namespace emergence::dht
