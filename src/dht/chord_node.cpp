#include "dht/chord_node.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "dht/chord_network.hpp"

namespace emergence::dht {

ChordNode::ChordNode(ChordNetwork& network, NodeId id,
                     std::size_t successor_list_size)
    : network_(network),
      self_{id, this},
      successor_list_size_(successor_list_size) {}

const PeerRef& ChordNode::successor_peer() const {
  for (const PeerRef& s : successors_) {
    if (s.node->alive()) return s;
  }
  return self_;
}

bool ChordNode::responsible_for(const NodeId& key) const {
  if (!predecessor_.has_value()) return true;  // alone or still joining
  return in_half_open_interval(key, predecessor_->id, id());
}

void ChordNode::create() {
  alive_ = true;
  predecessor_.reset();
  successors_.clear();
  successors_.push_back(self_);
}

void ChordNode::join(const NodeId& bootstrap) {
  ChordNode* entry = network_.live_node(bootstrap);
  require(entry != nullptr, "ChordNode::join: bootstrap node is dead");
  predecessor_.reset();
  // A rejoining slot stays dead until here, so peers that still list it
  // route this lookup around it instead of back to the joiner.
  const ChordLookup result = entry->find_successor(id());
  require(result.ok, "ChordNode::join: lookup failed");
  alive_ = true;
  successors_.clear();
  successors_.push_back(result.peer);

  // Pull the keys this node is now responsible for from its successor.
  ChordNode* succ = result.peer.node;
  if (succ->alive() && succ != this) {
    const NodeId lower =
        succ->predecessor_.has_value() ? succ->predecessor_->id : succ->id();
    for (const NodeId& key : succ->storage().keys_in_range(lower, id())) {
      SharedBytes value = succ->storage().get(key);
      if (value != nullptr) store_local(key, std::move(value));
    }
    succ->notify(self_);
  }
}

void ChordNode::leave() {
  if (!alive_) return;
  // Hand all keys to the live successor before departing.
  ChordNode* succ = successor_peer().node;
  if (succ != this) {
    for (const NodeId& key : storage_.all_keys()) {
      SharedBytes value = storage_.get(key);
      if (value != nullptr) succ->store_local(key, std::move(value));
    }
    if (predecessor_.has_value()) succ->set_predecessor(predecessor_);
  }
  alive_ = false;
  storage_.clear();
}

void ChordNode::fail() {
  alive_ = false;
  storage_.clear();
  predecessor_.reset();
}

void ChordNode::reset_for_rejoin() {
  predecessor_.reset();
  successors_.clear();
  fingers_.clear();
  next_finger_ = 0;
  storage_.clear();
  ++incarnation_;
}

void ChordNode::prune_dead_successors() {
  std::erase_if(successors_,
                [](const PeerRef& s) { return !s.node->alive(); });
}

void ChordNode::stabilize() {
  if (!alive_) return;
  prune_dead_successors();
  if (successors_.empty()) successors_.push_back(self_);

  // Live: the pruned list's head, or this node.
  PeerRef succ = successor_peer();

  // Adopt a node that slid between us and our successor.
  const std::optional<PeerRef> x = succ.node->predecessor_;
  if (x.has_value() && x->node != this && x->node->alive() &&
      in_open_interval(x->id, id(), succ.id)) {
    successors_.insert(successors_.begin(), *x);
    succ = *x;
  }

  // Refresh the successor list from the successor's list.
  std::vector<PeerRef> fresh;
  fresh.reserve(successor_list_size_);
  fresh.push_back(succ);
  for (const PeerRef& s : succ.node->successors_) {
    if (s.node == this) continue;
    if (std::any_of(fresh.begin(), fresh.end(),
                    [&](const PeerRef& f) { return f.node == s.node; }))
      continue;
    fresh.push_back(s);
    if (fresh.size() >= successor_list_size_) break;
  }
  successors_ = std::move(fresh);

  if (succ.node != this) succ.node->notify(self_);
}

void ChordNode::notify(const PeerRef& candidate) {
  if (!alive_) return;
  if (candidate.node == this || !candidate.node->alive()) return;
  if (!predecessor_.has_value() ||
      in_open_interval(candidate.id, predecessor_->id, id()) ||
      !predecessor_->node->alive()) {
    predecessor_ = candidate;
  }
}

void ChordNode::fix_fingers() {
  if (!alive_) return;
  const ChordLookup result =
      find_successor(id().add_power_of_two(next_finger_));
  if (result.ok) fingers_.set(next_finger_, result.peer);
  next_finger_ = static_cast<std::uint8_t>((next_finger_ + 1) % kIdBits);
}

void ChordNode::fix_all_fingers() {
  for (std::size_t i = 0; i < kIdBits; ++i) {
    const ChordLookup result = find_successor(id().add_power_of_two(i));
    if (result.ok) fingers_.set(i, result.peer);
  }
}

void ChordNode::check_predecessor() {
  if (!alive_) return;
  if (predecessor_.has_value() && !predecessor_->node->alive()) {
    predecessor_.reset();
  }
}

void ChordNode::replica_maintenance(std::size_t replication_factor) {
  if (!alive_) return;
  if (storage_.size() == 0) return;
  // Push every key we hold to the nodes that should replicate it: the
  // responsible node and its replication_factor-1 successors.
  for (const NodeId& key : storage_.all_keys()) {
    const ChordLookup result = find_successor(key);
    if (!result.ok) continue;
    const SharedBytes value = storage_.get(key);
    if (value == nullptr) continue;

    ChordNode* t = result.peer.node;
    for (std::size_t copy = 0; copy < replication_factor; ++copy) {
      if (!t->alive()) break;
      if (t != this && !t->storage().contains(key)) {
        t->store_local(key, value);  // shares the buffer
      }
      ChordNode* next = t->successor_peer().node;
      if (next == t) break;  // ring collapsed to one node
      t = next;
    }
  }
}

ChordLookup ChordNode::find_successor(const NodeId& key) const {
  const ChordNode* current = this;
  // A correct lookup takes O(log n) hops; the cap catches routing loops in
  // heavily churned rings.
  const int max_hops = static_cast<int>(kIdBits) + 16;
  for (int hop = 0; hop < max_hops; ++hop) {
    const PeerRef& succ = current->successor_peer();
    if (succ.node == current ||
        in_half_open_interval(key, current->id(), succ.id)) {
      return ChordLookup{succ, hop, true};
    }
    const ChordNode* next = current->closest_preceding_node(key);
    // When no finger advances us, fall through to the (live) successor.
    current = next == current ? succ.node : next;
  }
  return ChordLookup{self_, 0, false};
}

const ChordNode* ChordNode::closest_preceding_node(const NodeId& key) const {
  // Scan fingers from farthest to nearest for a live node in (id, key).
  // The run-compressed table visits each distinct finger once (highest
  // power first), which is exactly what the dense per-power scan reduced
  // to: whether a finger qualifies does not depend on the power.
  const std::vector<FingerTable::Run>& runs = fingers_.runs();
  for (std::size_t i = runs.size(); i-- > 0;) {
    const FingerTable::Run& f = runs[i];
    if (in_open_interval(f.id, id(), key) && f.node->alive()) return f.node;
  }
  // Successor list can still make progress when fingers are stale.
  for (std::size_t i = successors_.size(); i-- > 0;) {
    const PeerRef& s = successors_[i];
    if (in_open_interval(s.id, id(), key) && s.node->alive()) return s.node;
  }
  return this;
}

void ChordNode::store_local(const NodeId& key, SharedBytes value) {
  require(alive_, "ChordNode::store_local on a dead node");
  require(value != nullptr, "ChordNode::store_local: null value");
  storage_.put(key, value, network_.simulator().now());
  network_.notify_store(id(), key, *value);
}

void ChordNode::set_successor_list(std::vector<PeerRef> successors) {
  successors_ = std::move(successors);
  if (successors_.empty()) successors_.push_back(self_);
}

}  // namespace emergence::dht
