#include "emerge/resilience.hpp"

#include <cmath>
#include <limits>

#include "common/binomial.hpp"
#include "common/error.hpp"

namespace emergence::core {

std::string to_string(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kCentralized:
      return "central";
    case SchemeKind::kDisjoint:
      return "disjoint";
    case SchemeKind::kJoint:
      return "joint";
    case SchemeKind::kShare:
      return "share";
  }
  return "unknown";
}

std::string to_string(DhtBackend backend) {
  return backend == DhtBackend::kChord ? "chord" : "kademlia";
}

double multipath_release_resilience(double p, const PathShape& shape) {
  // Rr = 1 - (1-(1-p)^k)^l : the adversary must hold >=1 malicious holder in
  // every one of the l columns to collect all layer keys at ts. With
  // q = (1-p)^k this is 1-(1-q)^l.
  const double q = pow_one_minus(p, static_cast<double>(shape.k));
  return one_minus_pow_one_minus(q, static_cast<double>(shape.l));
}

double disjoint_drop_resilience(double p, const PathShape& shape) {
  // Rd = 1 - (1-(1-p)^l)^k : every one of the k disjoint paths must contain a
  // malicious holder. With q = (1-p)^l this is 1-(1-q)^k.
  const double q = pow_one_minus(p, static_cast<double>(shape.l));
  return one_minus_pow_one_minus(q, static_cast<double>(shape.k));
}

double joint_drop_resilience(double p, const PathShape& shape) {
  // Rd = (1-p^k)^l : dropping requires a column whose k holders are all
  // malicious.
  if (p <= 0.0) return 1.0;
  if (p >= 1.0) return 0.0;
  const double all_col = std::exp(static_cast<double>(shape.k) * std::log(p));
  return pow_one_minus(all_col, static_cast<double>(shape.l));
}

Resilience analytic_resilience(SchemeKind kind, double p,
                               const PathShape& shape) {
  switch (kind) {
    case SchemeKind::kCentralized:
      return Resilience{1.0 - p, 1.0 - p};
    case SchemeKind::kDisjoint:
      return Resilience{multipath_release_resilience(p, shape),
                        disjoint_drop_resilience(p, shape)};
    case SchemeKind::kJoint:
      return Resilience{multipath_release_resilience(p, shape),
                        joint_drop_resilience(p, shape)};
    case SchemeKind::kShare:
      break;
  }
  throw PreconditionError(
      "analytic_resilience: use Algorithm 1 for the key-share scheme");
}

namespace {

/// P[a slot storing material over window w has no malicious ever-occupant]
/// = (1-p) * e^{-(w/λ) p}.
double slot_clean_probability(double p, double window, double mean_lifetime) {
  return (1.0 - p) * std::exp(-(window / mean_lifetime) * p);
}

/// P[the occupant of a slot at onion arrival delivers it]: honest and
/// survives the holding period th.
double slot_delivers_probability(double p, double th, double mean_lifetime) {
  return (1.0 - p) * std::exp(-th / mean_lifetime);
}

}  // namespace

Resilience centralized_churn_resilience(double p, const ChurnSpec& churn) {
  if (!churn.enabled) return Resilience{1.0 - p, 1.0 - p};
  const double clean =
      slot_clean_probability(p, churn.emerging_time, churn.mean_lifetime);
  // Any malicious ever-occupant both learns the key (release-ahead) and can
  // destroy every repaired copy (drop), so both resiliences equal `clean`.
  return Resilience{clean, clean};
}

Resilience disjoint_churn_resilience(double p, const PathShape& shape,
                                     const ChurnSpec& churn) {
  if (!churn.enabled)
    return analytic_resilience(SchemeKind::kDisjoint, p, shape);
  const double l = static_cast<double>(shape.l);
  const double k = static_cast<double>(shape.k);
  const double th = churn.emerging_time / l;

  // Release-ahead: column j's key is exposed for window j*th on each of the
  // k slots that store it.
  double log_success = 0.0;
  for (std::size_t j = 1; j <= shape.l; ++j) {
    const double clean = slot_clean_probability(
        p, static_cast<double>(j) * th, churn.mean_lifetime);
    const double col_compromised =
        1.0 - std::exp(k * std::log(std::max(clean, 1e-300)));
    if (col_compromised <= 0.0) {
      log_success = -std::numeric_limits<double>::infinity();
      break;
    }
    log_success += std::log(col_compromised);
  }
  const double rr = 1.0 - std::exp(log_success);

  // Drop: a path survives only if every hop delivers the in-transit onion.
  const double hop = slot_delivers_probability(p, th, churn.mean_lifetime);
  const double path_alive = std::exp(l * std::log(std::max(hop, 1e-300)));
  const double all_severed =
      std::exp(k * std::log(std::max(1.0 - path_alive, 1e-300)));
  const double rd = path_alive >= 1.0 ? 1.0 : 1.0 - all_severed;
  return Resilience{rr, rd};
}

Resilience joint_churn_resilience(double p, const PathShape& shape,
                                  const ChurnSpec& churn) {
  if (!churn.enabled) return analytic_resilience(SchemeKind::kJoint, p, shape);
  const double l = static_cast<double>(shape.l);
  const double k = static_cast<double>(shape.k);
  const double th = churn.emerging_time / l;

  // Release-ahead: identical exposure structure to the disjoint scheme (keys
  // are pre-assigned per column either way).
  const Resilience disjoint = disjoint_churn_resilience(p, shape, churn);

  // Drop: a column forwards when at least one of its k slots delivers.
  const double hop = slot_delivers_probability(p, th, churn.mean_lifetime);
  const double col_forwards =
      1.0 - std::exp(k * std::log(std::max(1.0 - hop, 1e-300)));
  const double rd =
      std::exp(l * std::log(std::max(col_forwards, 1e-300)));
  return Resilience{disjoint.release_ahead, rd};
}

Resilience analytic_churn_resilience(SchemeKind kind, double p,
                                     const PathShape& shape,
                                     const ChurnSpec& churn) {
  switch (kind) {
    case SchemeKind::kCentralized:
      return centralized_churn_resilience(p, churn);
    case SchemeKind::kDisjoint:
      return disjoint_churn_resilience(p, shape, churn);
    case SchemeKind::kJoint:
      return joint_churn_resilience(p, shape, churn);
    case SchemeKind::kShare:
      break;
  }
  throw PreconditionError(
      "analytic_churn_resilience: use Algorithm 1 for the key-share scheme");
}

bool lemma1_holds(double p, const PathShape& shape) {
  const Resilience r = analytic_resilience(SchemeKind::kJoint, p, shape);
  return r.release_ahead + r.drop > 1.0;
}

}  // namespace emergence::core
