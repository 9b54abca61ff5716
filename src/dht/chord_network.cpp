#include "dht/chord_network.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

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
    : NodeNetwork(simulator, rng, config.transport, "node-"),
      config_(std::move(config)) {
  if (config_.run_maintenance) {
    stabilize_lane_ = simulator.add_lane();
    repair_lane_ = simulator.add_lane();
  }
}

void ChordNetwork::bootstrap(std::size_t count) {
  require(count > 0, "ChordNetwork::bootstrap: need at least one node");
  reserve_nodes(count);

  std::vector<PeerRef> ring;
  ring.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId id = fresh_node_id();
    ChordNode& n = allocate_node(id, *this, id, config_.successor_list_size);
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
      stabilize.emplace_back(rng().real() * config_.stabilize_interval,
                             peer.node);
      repair.emplace_back(rng().real() * config_.replica_repair_interval,
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
  schedule_stabilize_in(rng().real() * config_.stabilize_interval, node);
  schedule_repair_in(rng().real() * config_.replica_repair_interval, node);
}

// The timers capture the node's handle and incarnation: a timer whose node
// died stops, and a timer that outlived a kill-then-rejoin of the same id
// stops too (the rejoin armed its own chain; without the check the node
// would run two). Two words fit std::function's inline buffer, so arming a
// timer allocates nothing.
void ChordNetwork::schedule_stabilize_in(double delay, ChordNode& node) {
  simulator().schedule_in_lane(
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
  simulator().schedule_in_lane(
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
  ChordNode& fresh = allocate_node(id, *this, id, config_.successor_list_size);

  if (alive_count() == 0) {
    fresh.create();
  } else {
    const NodeId bootstrap = alive_ids()[rng().index(alive_count())];
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
  // `id` may alias a slot of alive_ids() (e.g. kill_node(alive_ids()[i])),
  // which unregister_alive's swap-pop overwrites; nothing reads it after.
  n->fail();
  unregister_alive(*n);
}

void ChordNetwork::remove_node(const NodeId& id) {
  ChordNode* n = live_node(id);
  if (n == nullptr) return;
  n->leave();
  unregister_alive(*n);  // see kill_node on aliasing
}

ChordLookup ChordNetwork::route(const NodeId& key) {
  const ChordLookup found = random_live_node().find_successor(key);
  seams().lookup_stats.record(found.result());
  return found;
}

std::optional<NodeId> ChordNetwork::live_owner(const NodeId& ring_point) {
  const ChordLookup found = route(ring_point);
  if (!found.ok || !found.peer.node->alive()) return std::nullopt;
  return found.peer.id;
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
  const std::optional<NodeId> step = live_ring().successor_of(t.id());
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

void ChordNetwork::run_maintenance_round() {
  // Snapshot the handles: maintenance can change the alive set.
  const std::vector<ChordNode*> nodes = alive_nodes();
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
