// Shared vocabulary types for the self-emerging key routing schemes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace emergence::core {

/// The four routing schemes of the paper (§III-A..D).
enum class SchemeKind : std::uint8_t {
  kCentralized,  ///< single holder for the whole emerging period
  kDisjoint,     ///< k node-disjoint onion paths of length l
  kJoint,        ///< node-joint multipath (full bipartite between columns)
  kShare,        ///< key-share routing (Shamir shares travel with the onion)
};

std::string to_string(SchemeKind kind);

/// DHT substrate for a world (the role Overlay Weaver's pluggable
/// algorithms played for the paper).
enum class DhtBackend : std::uint8_t { kChord, kKademlia };

std::string to_string(DhtBackend backend);

/// Geometry of a multipath scheme: k replicated paths, l holders per path.
/// The holding period is th = T / l.
struct PathShape {
  std::size_t k = 1;  ///< replication factor (number of paths / slots per column)
  std::size_t l = 1;  ///< path length (number of columns)

  std::size_t holder_count() const { return k * l; }
};

/// Resilience pair: release-ahead attack resilience Rr and drop attack
/// resilience Rd; R = min(Rr, Rd) is what the paper plots when it sets
/// Rr = Rd.
struct Resilience {
  double release_ahead = 1.0;  ///< Rr
  double drop = 1.0;           ///< Rd

  double combined() const {
    return release_ahead < drop ? release_ahead : drop;
  }
};

/// Churn environment: exponential node lifetimes with mean `mean_lifetime`;
/// the emerging period is T = alpha * mean_lifetime (the paper sweeps alpha).
struct ChurnSpec {
  bool enabled = false;
  double mean_lifetime = 1.0;  ///< λ in arbitrary time units
  double emerging_time = 1.0;  ///< T in the same units

  double alpha() const { return emerging_time / mean_lifetime; }

  static ChurnSpec none() { return ChurnSpec{}; }
  static ChurnSpec with_alpha(double alpha) {
    return ChurnSpec{true, 1.0, alpha};
  }
};

}  // namespace emergence::core
