#include "dht/chord_network.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "sim/execution_context.hpp"

namespace emergence::dht {
namespace {

/// floor(log2((to - from) mod 2^160)); requires to != from. Used by the
/// bootstrap finger construction: a finger at clockwise distance d serves
/// every power p with 2^p <= d, i.e. p <= floor_log2_distance.
std::size_t floor_log2_distance(const NodeId& from, const NodeId& to) {
  const auto& a = from.bytes();
  const auto& b = to.bytes();
  // d = b - a, big-endian with borrow (mod 2^160).
  std::array<std::uint8_t, kIdBytes> d{};
  int borrow = 0;
  for (std::size_t i = kIdBytes; i-- > 0;) {
    const int diff = static_cast<int>(b[i]) - static_cast<int>(a[i]) - borrow;
    d[i] = static_cast<std::uint8_t>(diff & 0xff);
    borrow = diff < 0 ? 1 : 0;
  }
  for (std::size_t i = 0; i < kIdBytes; ++i) {
    if (d[i] == 0) continue;
    int bit = 7;
    while (((d[i] >> bit) & 1) == 0) --bit;
    return (kIdBytes - 1 - i) * 8 + static_cast<std::size_t>(bit);
  }
  throw PreconditionError("floor_log2_distance: identical ids");
}

}  // namespace

ChordNetwork::ChordNetwork(sim::Simulator& simulator, Rng& rng,
                           NetworkConfig config)
    : simulator_(simulator),
      rng_(rng),
      config_(config) {
  config_.transport.validate();
  if (config_.run_maintenance) {
    stabilize_lane_ = simulator_.add_lane();
    repair_lane_ = simulator_.add_lane();
  }
}

NodeId ChordNetwork::fresh_node_id() {
  // Hash a unique counter; collisions are astronomically unlikely but we
  // re-draw on one anyway.
  for (;;) {
    const std::string name = "node-" + std::to_string(node_counter_++);
    const NodeId id = NodeId::hash_of_text(name);
    if (nodes_.find(id) == nodes_.end()) return id;
  }
}

ChordNode& ChordNetwork::allocate_node(const NodeId& id) {
  // A rejoin of a dead id (transient churn outage) reuses its arena slot:
  // reset_for_rejoin restores the freshly-constructed state, so long
  // churned worlds do not accrete one dead instance per rejoin.
  auto it = nodes_.find(id);
  if (it != nodes_.end()) {
    it->second->reset_for_rejoin();
    return *it->second;
  }
  arena_.emplace_back(*this, id, config_.successor_list_size);
  ChordNode& fresh = arena_.back();
  nodes_[id] = &fresh;
  return fresh;
}

void ChordNetwork::register_alive(ChordNode& node) {
  const NodeId& id = node.id();
  alive_index_[id] = alive_ids_.size();
  alive_ids_.push_back(id);
  alive_nodes_.push_back(&node);
  live_ring_.insert(id);
  // Every node's zone is primed from serial code (bootstrap / churn joins),
  // so zone_of stays a pure read when domains sample latencies in parallel.
  config_.transport.prime_zone(id);
}

void ChordNetwork::unregister_alive(const ChordNode& node) {
  const NodeId& id = node.id();  // the node's own copy, never alive_ids_'
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

void ChordNetwork::bootstrap(std::size_t count) {
  require(count > 0, "ChordNetwork::bootstrap: need at least one node");
  require(nodes_.empty(), "ChordNetwork::bootstrap: network already built");

  nodes_.reserve(count);
  alive_index_.reserve(count);
  alive_ids_.reserve(count);
  alive_nodes_.reserve(count);

  std::vector<PeerRef> ring;
  ring.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ChordNode& n = allocate_node(fresh_node_id());
    ring.push_back(n.self());
    register_alive(n);
  }
  std::sort(ring.begin(), ring.end(),
            [](const PeerRef& a, const PeerRef& b) { return a.id < b.id; });

  // Wire exact ring pointers.
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<PeerRef> succ;
    succ.reserve(std::min(config_.successor_list_size, count - 1));
    for (std::size_t s = 1; s <= config_.successor_list_size && s < count; ++s)
      succ.push_back(ring[(i + s) % count]);
    ChordNode& n = *ring[i].node;
    n.set_successor_list(std::move(succ));
    n.set_predecessor(ring[(i + count - 1) % count]);
  }

  // Exact fingers, built as runs. The finger for start = id + 2^p is the
  // node minimizing clockwise distance-from-start, equivalently the first
  // node at clockwise distance >= 2^p from id (self when no other node is
  // that far — matching a plain sorted lower_bound with wrap-around, which
  // is what a per-power construction computed here before). Distances
  // grow monotonically along the ring, so each node needs one monotone
  // sweep of ~log2(n) binary searches instead of kIdBits of them, and each
  // discovered finger covers the whole power range up to
  // floor(log2(distance)) in a single run. Each table is built in a
  // scratch table and copied out at exact capacity.
  FingerTable scratch;
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId& x = ring[i].id;
    scratch.clear();
    std::size_t p = 0;
    std::size_t t_lo = 1;  // ring offset of the first candidate
    while (p < kIdBits) {
      const NodeId start = x.add_power_of_two(p);
      // Smallest ring offset t in [t_lo, count] whose node sits at
      // clockwise distance >= 2^p (offset `count` stands for self, which
      // always qualifies); y qualifies iff it is NOT strictly inside
      // (x, start), and the predicate is monotone in t.
      std::size_t lo = t_lo;
      std::size_t hi = count;
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        const NodeId& y = ring[(i + mid) % count].id;
        if (!in_open_interval(y, x, start)) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      std::size_t hi_power = kIdBits - 1;
      const PeerRef* finger = &ring[i];
      if (lo < count) {
        finger = &ring[(i + lo) % count];
        hi_power = floor_log2_distance(x, finger->id);
      }
      scratch.append_run(p, hi_power, *finger);
      p = hi_power + 1;
      t_lo = lo;
    }
    ring[i].node->finger_table().assign_compact(scratch);
  }

  if (config_.run_maintenance) {
    // The phase draws of schedule_maintenance(), in ring order, but armed
    // in phase order: then every first arm joins its lane (see
    // schedule_maintenance). Pushed in ring order, random phases would
    // mostly land below the lane's tail and take the heap. Only two equal
    // phases could tell the two push orders apart.
    std::vector<std::pair<double, ChordNode*>> stabilize, repair;
    stabilize.reserve(count);
    repair.reserve(count);
    for (const PeerRef& peer : ring) {
      stabilize.emplace_back(rng_.real() * config_.stabilize_interval,
                             peer.node);
      repair.emplace_back(rng_.real() * config_.replica_repair_interval,
                          peer.node);
    }
    const auto by_phase = [](const auto& a, const auto& b) {
      return a.first < b.first;
    };
    std::stable_sort(stabilize.begin(), stabilize.end(), by_phase);
    std::stable_sort(repair.begin(), repair.end(), by_phase);
    for (const auto& [phase, n] : stabilize) schedule_stabilize_in(phase, *n);
    for (const auto& [phase, n] : repair) schedule_repair_in(phase, *n);
  }
}

void ChordNetwork::schedule_maintenance(ChordNode& node) {
  // Jitter the initial phases so maintenance does not run in lockstep; each
  // timer then re-arms at its own fixed interval. (An earlier revision
  // re-armed repair from the stabilize callback, so repair fired at
  // stabilize_interval cadence with a fresh random phase every round —
  // ~4x the configured rate under the default intervals.)
  //
  // Each timer kind has its own simulator lane. A re-arm lands at now plus
  // the fixed interval and now never decreases, so re-arms reach their lane
  // in deadline order and never touch the heap. A joiner's first arm lands
  // inside the current interval, below the lane's tail, and takes the heap
  // once.
  schedule_stabilize_in(rng_.real() * config_.stabilize_interval, node);
  schedule_repair_in(rng_.real() * config_.replica_repair_interval, node);
}

// The timers capture the node's handle and incarnation: a timer whose node
// died stops, and a timer that outlived a kill-then-rejoin of the same id
// stops too (the rejoin armed its own chain; without the check the node
// would run two). Two words fit std::function's inline buffer, so arming a
// timer allocates nothing.
void ChordNetwork::schedule_stabilize_in(double delay, ChordNode& node) {
  simulator_.schedule_in_lane(
      stabilize_lane_, delay,
      [n = &node, incarnation = node.incarnation()]() {
        if (!n->alive() || n->incarnation() != incarnation) return;
        n->stabilize();
        n->fix_fingers();
        n->check_predecessor();
        ChordNetwork& net = n->network();
        ++net.maintenance_stats_.stabilize_rounds;
        net.schedule_stabilize_in(net.config_.stabilize_interval, *n);
      });
}

void ChordNetwork::schedule_repair_in(double delay, ChordNode& node) {
  simulator_.schedule_in_lane(
      repair_lane_, delay,
      [n = &node, incarnation = node.incarnation()]() {
        if (!n->alive() || n->incarnation() != incarnation) return;
        ChordNetwork& net = n->network();
        n->replica_maintenance(net.config_.replication_factor);
        ++net.maintenance_stats_.repair_rounds;
        net.schedule_repair_in(net.config_.replica_repair_interval, *n);
      });
}

NodeId ChordNetwork::add_node() { return add_node_with_id(fresh_node_id()); }

NodeId ChordNetwork::add_node_with_id(const NodeId& id) {
  const ChordNode* existing = node(id);
  require(existing == nullptr || !existing->alive(),
          "ChordNetwork::add_node_with_id: id already in use");
  ChordNode& fresh = allocate_node(id);

  if (alive_ids_.empty()) {
    fresh.create();
  } else {
    const NodeId bootstrap = alive_ids_[rng_.index(alive_ids_.size())];
    fresh.join(bootstrap);
  }
  register_alive(fresh);
  if (config_.exact_join_fingers) {
    fresh.fix_all_fingers();
  } else {
    // O(log n) join: adopt the successor's (ring-adjacent, hence mostly
    // correct) finger table; periodic fix_fingers converges it.
    const ChordNode* succ = fresh.successor_peer().node;
    if (succ != &fresh) fresh.finger_table() = succ->finger_table();
    fresh.set_finger(0, fresh.successor_peer());
  }
  if (config_.run_maintenance) schedule_maintenance(fresh);
  return id;
}

void ChordNetwork::kill_node(const NodeId& id) {
  ChordNode* n = live_node(id);
  if (n == nullptr) return;
  // Callers may pass a reference into alive_ids_ itself (e.g.
  // kill_node(alive_ids()[i])); unregister_alive's swap-pop overwrites that
  // slot, so work from the node's own copy of the id.
  n->fail();
  unregister_alive(*n);
  handlers_.erase(n->id());
}

void ChordNetwork::remove_node(const NodeId& id) {
  ChordNode* n = live_node(id);
  if (n == nullptr) return;
  n->leave();
  unregister_alive(*n);  // see kill_node on aliasing
  handlers_.erase(n->id());
}

ChordNode* ChordNetwork::node(const NodeId& id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second;
}

const ChordNode* ChordNetwork::node(const NodeId& id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second;
}

ChordNode* ChordNetwork::live_node(const NodeId& id) {
  ChordNode* n = node(id);
  return (n != nullptr && n->alive()) ? n : nullptr;
}

ChordNode& ChordNetwork::random_live_node() {
  require(!alive_ids_.empty(), "ChordNetwork: no live nodes");
  // Session lookups draw the entry pick from the executing session's own
  // stream (domain-count invariant); code outside any execution context
  // (maintenance, churn, a bare network) keeps the shared network stream.
  auto* ctx = sim::ExecutionContext::active_on(&simulator_);
  Rng& rng = (ctx != nullptr && ctx->rng != nullptr) ? *ctx->rng : rng_;
  return *alive_nodes_[rng.index(alive_nodes_.size())];
}

ChordLookup ChordNetwork::route(const NodeId& key) {
  const ChordLookup found = random_live_node().find_successor(key);
  auto* ctx = sim::ExecutionContext::active_on(&simulator_);
  LookupStats& stats = (ctx != nullptr && ctx->lookup_stats != nullptr)
                           ? *ctx->lookup_stats
                           : lookup_stats_;
  stats.record(found.result());
  return found;
}

LookupResult ChordNetwork::lookup(const NodeId& key) {
  return route(key).result();
}

bool ChordNetwork::put(const NodeId& key, SharedBytes value) {
  require(value != nullptr, "ChordNetwork::put: null value");
  const ChordLookup found = route(key);
  if (!found.ok) return false;
  ChordNode* primary = found.peer.node;
  if (!primary->alive()) return false;
  primary->store_local(key, value);

  ChordNode* t = primary->successor_peer().node;
  for (std::size_t copy = 1; copy < config_.replication_factor; ++copy) {
    if (!t->alive() || t == primary) break;
    t->store_local(key, value);  // replicas share the buffer
    t = t->successor_peer().node;
  }
  return true;
}

ChordNode* ChordNetwork::next_replica_candidate(ChordNode& t) {
  ChordNode* next = t.successor_peer().node;
  if (next != &t) return next;
  // Successor list exhausted (e.g. a fresh joiner whose only successor died
  // before it re-stabilized; routed lookups would just bounce off the same
  // broken pointer). Step to the true ring successor through the sorted
  // live index — O(log n), and exactly the node one stabilize round would
  // restore as the successor. The index answers with an id.
  const std::optional<NodeId> step = live_ring_.successor_of(t.id());
  return step.has_value() ? live_node(*step) : nullptr;  // null: alone
}

SharedBytes ChordNetwork::get(const NodeId& key) {
  const ChordLookup found = route(key);
  if (!found.ok) return nullptr;
  // Replicas live on the first replication_factor live successors of the
  // primary *at put/repair time*. When responsibility migrates afterwards
  // (the primary dies, or fresh nodes join between the key and the old
  // replica set), the current responsible node can sit several hops short
  // of the surviving copies, so a walk of exactly replication_factor nodes
  // misses reachable data. Walk up to successor_list_size extra live nodes
  // and stop when the ring wraps back to the start.
  ChordNode* t = found.peer.node;
  const std::size_t max_visits =
      config_.replication_factor + config_.successor_list_size;
  for (std::size_t visit = 0; visit < max_visits; ++visit) {
    if (!t->alive()) break;
    SharedBytes value = t->storage().get(key);
    if (value != nullptr) return value;
    ChordNode* next = next_replica_candidate(*t);
    if (next == nullptr || next == found.peer.node) break;  // alone / wrapped
    t = next;
  }
  return nullptr;
}

std::size_t ChordNetwork::erase(const NodeId& key) {
  const ChordLookup found = route(key);
  if (!found.ok) return 0;
  // Same walk as get(): the responsible node plus enough live successors to
  // cover replicas stranded behind interloper joins.
  std::size_t erased = 0;
  ChordNode* t = found.peer.node;
  const std::size_t max_visits =
      config_.replication_factor + config_.successor_list_size;
  for (std::size_t visit = 0; visit < max_visits; ++visit) {
    if (!t->alive()) break;
    if (t->storage().erase(key)) ++erased;
    ChordNode* next = next_replica_candidate(*t);
    if (next == nullptr || next == found.peer.node) break;  // alone / wrapped
    t = next;
  }
  return erased;
}

bool ChordNetwork::store_on(const NodeId& id, const NodeId& key,
                            SharedBytes value) {
  require(value != nullptr, "ChordNetwork::store_on: null value");
  ChordNode* n = live_node(id);
  if (n == nullptr) return false;
  n->store_local(key, std::move(value));
  return true;
}

SharedBytes ChordNetwork::load_from(const NodeId& id, const NodeId& key) {
  ChordNode* n = live_node(id);
  if (n == nullptr) return nullptr;
  return n->storage().get(key);
}

void ChordNetwork::set_message_handler(const NodeId& node_id,
                                       MessageHandler handler) {
  handlers_[node_id] = std::move(handler);
}

void ChordNetwork::deliver(const NodeId& from, const NodeId& to,
                           BytesView payload) {
  auto it = handlers_.find(to);
  if (it != handlers_.end()) {
    it->second(from, to, payload);
  } else if (default_handler_) {
    default_handler_(from, to, payload);
  }
}

void ChordNetwork::send_message(const NodeId& from, const NodeId& to,
                                SharedBytes payload) {
  require(payload != nullptr, "ChordNetwork::send_message: null payload");
  auto* ctx = sim::ExecutionContext::active_on(&simulator_);
  Rng& rng = (ctx != nullptr && ctx->rng != nullptr) ? *ctx->rng : rng_;
  TransportStats& stats =
      (ctx != nullptr && ctx->transport_stats != nullptr)
          ? *ctx->transport_stats
          : transport_stats_;
  obs::TraceShard* trace =
      (ctx != nullptr && ctx->trace != nullptr) ? ctx->trace : trace_shard_;
  config_.transport.send(
      simulator_, rng, stats, from, to,
      [this, from, to, payload = std::move(payload)]() {
        if (live_node(to) == nullptr) return;  // dead destination: lost
        deliver(from, to, *payload);
      },
      trace);
}

void ChordNetwork::send_message_routed(const NodeId& from,
                                       const NodeId& ring_point,
                                       SharedBytes payload) {
  require(payload != nullptr,
          "ChordNetwork::send_message_routed: null payload");
  auto* ctx = sim::ExecutionContext::active_on(&simulator_);
  Rng& rng = (ctx != nullptr && ctx->rng != nullptr) ? *ctx->rng : rng_;
  TransportStats& stats =
      (ctx != nullptr && ctx->transport_stats != nullptr)
          ? *ctx->transport_stats
          : transport_stats_;
  obs::TraceShard* trace =
      (ctx != nullptr && ctx->trace != nullptr) ? ctx->trace : trace_shard_;
  config_.transport.send(
      simulator_, rng, stats, from, ring_point,
      [this, from, ring_point, payload = std::move(payload)]() {
        const ChordLookup found = route(ring_point);
        if (!found.ok || !found.peer.node->alive()) return;
        deliver(from, found.peer.id, *payload);
      },
      trace);
}

void ChordNetwork::run_maintenance_round() {
  // Snapshot the handles: maintenance can change the alive set.
  const std::vector<ChordNode*> nodes = alive_nodes_;
  for (ChordNode* n : nodes) {
    if (!n->alive()) continue;
    n->stabilize();
    n->check_predecessor();
  }
  for (ChordNode* n : nodes) {
    if (!n->alive()) continue;
    n->fix_all_fingers();
    n->replica_maintenance(config_.replication_factor);
  }
}

}  // namespace emergence::dht
