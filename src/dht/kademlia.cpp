#include "dht/kademlia.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"

namespace emergence::dht {

bool xor_closer(const NodeId& a, const NodeId& b, const NodeId& target) {
  // Compare a^target and b^target lexicographically (big-endian ids make
  // that the unsigned-integer comparison).
  const auto& ab = a.bytes();
  const auto& bb = b.bytes();
  const auto& tb = target.bytes();
  for (std::size_t i = 0; i < kIdBytes; ++i) {
    const std::uint8_t da = ab[i] ^ tb[i];
    const std::uint8_t db = bb[i] ^ tb[i];
    if (da != db) return da < db;
  }
  return false;
}

std::size_t bucket_index(const NodeId& a, const NodeId& b) {
  const auto& ab = a.bytes();
  const auto& bb = b.bytes();
  for (std::size_t i = 0; i < kIdBytes; ++i) {
    const std::uint8_t x = ab[i] ^ bb[i];
    if (x != 0) {
      // Highest set bit of x within this byte.
      int bit = 7;
      while (((x >> bit) & 1) == 0) --bit;
      return (kIdBytes - 1 - i) * 8 + static_cast<std::size_t>(bit);
    }
  }
  throw PreconditionError("bucket_index: identical ids");
}

void KademliaNode::observe_contact(const NodeId& contact,
                                   std::size_t bucket_size) {
  if (contact == id_) return;
  auto& bucket = buckets_[bucket_index(id_, contact)];
  if (std::find(bucket.begin(), bucket.end(), contact) != bucket.end()) return;
  if (bucket.size() >= bucket_size) return;  // bucket full: reject newcomer
  bucket.push_back(contact);
}

void KademliaNode::drop_contact(const NodeId& contact) {
  if (contact == id_) return;
  auto& bucket = buckets_[bucket_index(id_, contact)];
  std::erase(bucket, contact);
}

std::vector<NodeId> KademliaNode::closest_contacts(const NodeId& target,
                                                   std::size_t count) const {
  std::vector<NodeId> all;
  for (const auto& bucket : buckets_)
    all.insert(all.end(), bucket.begin(), bucket.end());
  all.push_back(id_);
  std::sort(all.begin(), all.end(), [&](const NodeId& a, const NodeId& b) {
    return xor_closer(a, b, target);
  });
  if (all.size() > count) all.resize(count);
  return all;
}

std::size_t KademliaNode::contact_count() const {
  std::size_t total = 0;
  for (const auto& bucket : buckets_) total += bucket.size();
  return total;
}

KademliaNetwork::KademliaNetwork(sim::Simulator& simulator, Rng& rng,
                                 KademliaConfig config)
    : NodeNetwork(simulator, rng, config.transport, "kad-node-"),
      config_(std::move(config)) {}

void KademliaNetwork::bootstrap(std::size_t count) {
  require(count > 0, "KademliaNetwork::bootstrap: need at least one node");
  reserve_nodes(count);

  std::vector<NodeId> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId id = fresh_node_id();
    ids.push_back(id);
    register_alive(allocate_node(id, id, kIdBits));
  }

  // Bucket population via prefix ranges: node x's bucket b holds ids that
  // share bits above b with x and differ at bit b — a contiguous range of
  // the sorted id list, found with two binary searches instead of the old
  // all-pairs observe_contact sweep (O(n^2) -> O(n * bits * (log n + k))).
  // When a range holds more than bucket_size candidates the old sweep kept
  // the first k in node-creation (hash-random) order; here we keep an
  // evenly-strided sample of the range, a different but equally arbitrary
  // deterministic k-subset. Consumers re-sort contacts by XOR distance, so
  // only membership matters; near buckets (<= k candidates) are identical,
  // which is what lookup exactness rests on.
  std::vector<NodeId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  for (const NodeId& x : ids) {
    KademliaNode& n = *node(x);
    const auto& xb = x.bytes();
    for (std::size_t b = 0; b < kIdBits; ++b) {
      const std::size_t byte = kIdBytes - 1 - b / 8;
      const std::uint8_t mask = static_cast<std::uint8_t>(1u << (b % 8));

      std::array<std::uint8_t, kIdBytes> lo{};
      std::copy(xb.begin(), xb.end(), lo.begin());
      lo[byte] = static_cast<std::uint8_t>((lo[byte] ^ mask) & ~(mask - 1));
      std::array<std::uint8_t, kIdBytes> hi = lo;
      hi[byte] = static_cast<std::uint8_t>(hi[byte] | (mask - 1));
      for (std::size_t j = byte + 1; j < kIdBytes; ++j) {
        lo[j] = 0x00;
        hi[j] = 0xff;
      }

      const NodeId lo_id = NodeId::from_bytes(BytesView(lo.data(), lo.size()));
      const NodeId hi_id = NodeId::from_bytes(BytesView(hi.data(), hi.size()));
      const auto begin =
          std::lower_bound(sorted.begin(), sorted.end(), lo_id);
      const auto end = std::upper_bound(begin, sorted.end(), hi_id);
      const std::size_t found = static_cast<std::size_t>(end - begin);
      if (found == 0) continue;

      std::vector<NodeId> contacts;
      const std::size_t keep = std::min(found, config_.bucket_size);
      contacts.reserve(keep);
      for (std::size_t j = 0; j < keep; ++j) {
        contacts.push_back(*(begin + static_cast<std::ptrdiff_t>(
                                         j * found / keep)));
      }
      n.seed_bucket(b, std::move(contacts));
    }
  }
  if (config_.run_maintenance) schedule_republish();
}

NodeId KademliaNetwork::add_node() { return join_node(fresh_node_id()); }

NodeId KademliaNetwork::add_node_with_id(const NodeId& id) {
  require(!is_alive(id),
          "KademliaNetwork::add_node_with_id: id already in use");
  return join_node(id);
}

NodeId KademliaNetwork::join_node(const NodeId& id) {
  KademliaNode& fresh = allocate_node(id, id, kIdBits);
  if (alive_count() == 0) {
    register_alive(fresh);
    return id;
  }
  // Learn the bootstrap contact, then run a self-lookup from the fresh
  // node: every queried node learns about it, which populates the routing
  // tables around its own id.
  const NodeId bootstrap = alive_ids()[rng().index(alive_count())];
  fresh.observe_contact(bootstrap, config_.bucket_size);
  register_alive(fresh);
  iterative_find_from(fresh, id);
  return id;
}

void KademliaNetwork::kill_node(const NodeId& id) {
  KademliaNode* n = live_node(id);
  if (n == nullptr) return;
  // `id` may alias a slot of alive_ids(), which unregister_alive's swap-pop
  // overwrites; nothing reads it after.
  n->mark_alive(false);
  n->storage().clear();
  unregister_alive(*n);
}

NodeId KademliaNetwork::closest_alive(const NodeId& key) const {
  require(alive_count() > 0, "KademliaNetwork: no live nodes");
  return *live_ring().xor_closest(key);
}

LookupResult KademliaNetwork::iterative_find_from(KademliaNode& origin,
                                                  const NodeId& key) {
  LookupResult result;
  // Session lookups (setup and window events alike, anything under an
  // execution context) run READ-ONLY: the k-bucket adaptation a lookup
  // normally performs (observe/drop contacts) would both race across
  // parallel domains and make routing tables depend on the domain count.
  // Maintenance and churn lookups run outside any context and still adapt.
  const Seams s = seams();
  const bool read_only = s.in_session;
  LookupStats& stats = s.lookup_stats;
  // Shortlist of closest known contacts, queried nearest-first. The origin
  // never queries itself (but may legitimately be the result).
  std::vector<NodeId> shortlist =
      origin.closest_contacts(key, config_.bucket_size);
  std::unordered_map<NodeId, bool, NodeIdHash> queried;
  queried[origin.id()] = true;
  int hops = 0;

  auto sort_shortlist = [&]() {
    std::sort(shortlist.begin(), shortlist.end(),
              [&](const NodeId& a, const NodeId& b) {
                return xor_closer(a, b, key);
              });
    if (shortlist.size() > config_.bucket_size)
      shortlist.resize(config_.bucket_size);
  };
  sort_shortlist();

  const int max_hops = static_cast<int>(kIdBits);
  for (int round = 0; round < max_hops; ++round) {
    // Convergence: when the closest live shortlist entry (other than the
    // origin, which answers no queries) has already been queried, no closer
    // node exists among anyone we could still ask.
    std::erase_if(shortlist, [&](const NodeId& candidate) {
      return node(candidate) != nullptr && !node(candidate)->alive();
    });
    const auto first_peer =
        std::find_if(shortlist.begin(), shortlist.end(),
                     [&](const NodeId& c) { return c != origin.id(); });
    if (first_peer != shortlist.end() && queried[*first_peer]) break;

    // Query the closest unqueried live candidate.
    KademliaNode* target = nullptr;
    for (const NodeId& candidate : shortlist) {
      if (queried[candidate]) continue;
      queried[candidate] = true;
      KademliaNode* n = live_node(candidate);
      if (n == nullptr) {
        if (!read_only) origin.drop_contact(candidate);
        continue;
      }
      target = n;
      break;
    }
    if (target == nullptr) break;  // shortlist exhausted
    ++hops;

    // The queried node returns its closest contacts and learns about us.
    if (!read_only) target->observe_contact(origin.id(), config_.bucket_size);
    const std::vector<NodeId> contacts =
        target->closest_contacts(key, config_.bucket_size);
    bool improved = false;
    for (const NodeId& c : contacts) {
      if (std::find(shortlist.begin(), shortlist.end(), c) ==
          shortlist.end()) {
        shortlist.push_back(c);
        improved = true;
      }
      if (!read_only) origin.observe_contact(c, config_.bucket_size);
    }
    if (improved) sort_shortlist();
  }

  // The result is the closest live entry of the final shortlist.
  for (const NodeId& candidate : shortlist) {
    if (live_node(candidate) != nullptr) {
      result.node = candidate;
      result.hops = hops;
      stats.record(result);
      return result;
    }
  }
  result.ok = false;
  stats.record(result);
  return result;
}

LookupResult KademliaNetwork::lookup(const NodeId& key) {
  if (alive_count() == 0) return LookupResult{NodeId{}, 0, false};
  return iterative_find_from(random_live_node(), key);
}

std::optional<NodeId> KademliaNetwork::live_owner(const NodeId& ring_point) {
  const LookupResult result = lookup(ring_point);
  if (!result.ok || !is_alive(result.node)) return std::nullopt;
  return result.node;
}

bool KademliaNetwork::put(const NodeId& key, SharedBytes value) {
  require(value != nullptr, "KademliaNetwork::put: null value");
  const LookupResult result = lookup(key);
  if (!result.ok) return false;
  // Replicate to the replication_factor closest live nodes around the key.
  KademliaNode* owner = live_node(result.node);
  if (owner == nullptr) return false;
  std::vector<NodeId> replicas =
      owner->closest_contacts(key, config_.bucket_size);
  std::size_t stored = 0;
  for (const NodeId& id : replicas) {
    KademliaNode* n = live_node(id);
    if (n == nullptr) continue;
    store_at(*n, key, value);  // shares the buffer
    if (++stored >= config_.replication_factor) break;
  }
  return stored > 0;
}

SharedBytes KademliaNetwork::get(const NodeId& key) {
  const LookupResult result = lookup(key);
  if (!result.ok) return nullptr;
  KademliaNode* owner = live_node(result.node);
  if (owner == nullptr) return nullptr;
  SharedBytes value = owner->storage().get(key);
  if (value != nullptr) return value;
  // Ask the nodes around the key.
  for (const NodeId& id : owner->closest_contacts(key, config_.bucket_size)) {
    KademliaNode* n = live_node(id);
    if (n == nullptr) continue;
    value = n->storage().get(key);
    if (value != nullptr) return value;
  }
  return nullptr;
}

std::size_t KademliaNetwork::erase(const NodeId& key) {
  const LookupResult result = lookup(key);
  if (!result.ok) return 0;
  KademliaNode* owner = live_node(result.node);
  if (owner == nullptr) return 0;
  // Same neighborhood put() replicated into and get() reads from.
  std::size_t erased = owner->storage().erase(key) ? 1 : 0;
  for (const NodeId& id : owner->closest_contacts(key, config_.bucket_size)) {
    KademliaNode* n = live_node(id);
    if (n == nullptr) continue;
    if (n->storage().erase(key)) ++erased;
  }
  return erased;
}

void KademliaNetwork::republish_round() {
  const std::vector<KademliaNode*> nodes = alive_nodes();
  for (KademliaNode* n : nodes) {
    for (const NodeId& key : n->storage().all_keys()) {
      const SharedBytes value = n->storage().get(key);
      if (value == nullptr) continue;
      std::size_t stored = 0;
      for (const NodeId& peer : n->closest_contacts(key, config_.bucket_size)) {
        KademliaNode* p = live_node(peer);
        if (p == nullptr) continue;
        if (p != n && !p->storage().contains(key)) store_at(*p, key, value);
        if (++stored >= config_.replication_factor) break;
      }
    }
  }
}

void KademliaNetwork::schedule_republish() {
  simulator().schedule_in(config_.republish_interval, [this]() {
    republish_round();
    schedule_republish();
  });
}

}  // namespace emergence::dht
