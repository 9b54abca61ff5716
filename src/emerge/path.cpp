#include "emerge/path.hpp"

#include <unordered_set>

#include "common/error.hpp"

namespace emergence::core {

std::size_t PathLayout::holders_in_column(std::size_t column1based) const {
  require(column1based >= 1 && column1based <= columns.size(),
          "PathLayout: column out of range");
  return columns[column1based - 1].size();
}

std::size_t PathLayout::total_holders() const {
  std::size_t total = 0;
  for (const auto& column : columns) total += column.size();
  return total;
}

bool PathLayout::contains(const dht::NodeId& node) const {
  for (const auto& column : columns) {
    for (const dht::NodeId& id : column) {
      if (id == node) return true;
    }
  }
  return false;
}

std::size_t column_holders(SchemeKind kind, const PathShape& shape,
                           std::size_t carriers_n, std::size_t column) {
  return kind == SchemeKind::kShare && column < shape.l ? carriers_n
                                                         : shape.k;
}

PathLayout build_path_layout(dht::Network& network, SchemeKind kind,
                             const PathShape& shape, std::size_t carriers_n,
                             crypto::Drbg& drbg) {
  require(kind != SchemeKind::kCentralized || shape.holder_count() == 1,
          "build_path_layout: centralized scheme is a 1x1 layout");
  const bool share = kind == SchemeKind::kShare;
  require(!share || carriers_n >= shape.k,
          "build_path_layout: share scheme needs n >= k");

  PathLayout layout;
  layout.kind = kind;
  layout.shape = shape;
  layout.carriers_n = share ? carriers_n : shape.k;

  std::size_t needed = 0;
  for (std::size_t c = 1; c <= shape.l; ++c) {
    needed += column_holders(kind, shape, carriers_n, c);
  }
  require(network.alive_count() > needed,
          "build_path_layout: not enough live nodes for distinct holders");

  std::unordered_set<dht::NodeId, dht::NodeIdHash> used;
  auto pick_holder = [&]() -> std::pair<dht::NodeId, dht::NodeId> {
    for (int attempt = 0; attempt < 4096; ++attempt) {
      // Deterministic pseudo-random ring position -> responsible node.
      const Bytes point = drbg.bytes(dht::kIdBytes);
      const dht::NodeId target = dht::NodeId::from_bytes(point);
      const dht::LookupResult result = network.lookup(target);
      if (!result.ok) continue;
      if (used.insert(result.node).second) return {target, result.node};
    }
    throw ProtocolError("build_path_layout: could not find a fresh holder");
  };

  layout.columns.resize(shape.l);
  layout.ring_points.resize(shape.l);
  for (std::size_t c = 1; c <= shape.l; ++c) {
    const std::size_t count = column_holders(kind, shape, carriers_n, c);
    auto& column = layout.columns[c - 1];
    auto& points = layout.ring_points[c - 1];
    column.reserve(count);
    points.reserve(count);
    for (std::size_t h = 0; h < count; ++h) {
      const auto [point, node] = pick_holder();
      points.push_back(point);
      column.push_back(node);
    }
  }
  return layout;
}

}  // namespace emergence::core
