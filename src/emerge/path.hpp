// Routing-path construction (paper §III: "the secret key owner ... pseudo-
// randomly selects nodes in the DHT to form the routing paths").
//
// The sender derives ring positions deterministically from a secret seed
// (message id), looks each position up in the DHT and uses the responsible
// nodes as holders. Determinism matters: the sender can regenerate the same
// paths from the seed without storing them, and nobody without the seed can
// predict holder positions.
#pragma once

#include <vector>

#include "crypto/drbg.hpp"
#include "dht/network.hpp"
#include "emerge/types.hpp"

namespace emergence::core {

/// Concrete holder layout for one protocol instance.
struct PathLayout {
  SchemeKind kind = SchemeKind::kJoint;
  PathShape shape;             ///< k onion slots per column, l columns
  std::size_t carriers_n = 0;  ///< share scheme: holders per column (n >= k)
  /// columns[c][h] = node responsible for holder slot h of column c+1 at
  /// construction time. For the share scheme, columns 0..l-2 have n entries
  /// (the first k are onion slots) and the terminal column has k; for
  /// disjoint/joint every column has k.
  std::vector<std::vector<dht::NodeId>> columns;
  /// ring_points[c][h] = the pseudo-random ring position that *defines*
  /// holder slot (c+1, h). Packages are addressed to these positions (a
  /// fresh lookup at send time), so responsibility follows churn exactly
  /// like DHT storage does.
  std::vector<std::vector<dht::NodeId>> ring_points;

  std::size_t holders_in_column(std::size_t column1based) const;
  std::size_t total_holders() const;
  /// True when `node` appears anywhere in the layout.
  bool contains(const dht::NodeId& node) const;
};

/// Holders staffing `column` (1-based): `carriers_n` in the share
/// scheme's non-terminal columns, k everywhere else.
std::size_t column_holders(SchemeKind kind, const PathShape& shape,
                           std::size_t carriers_n, std::size_t column);

/// Builds a layout by deterministic pseudo-random DHT lookups. All holders
/// are distinct nodes; positions hitting an already-used node are re-drawn
/// (requires the network to have more live nodes than holders are needed).
PathLayout build_path_layout(dht::Network& network, SchemeKind kind,
                             const PathShape& shape, std::size_t carriers_n,
                             crypto::Drbg& drbg);

}  // namespace emergence::core
