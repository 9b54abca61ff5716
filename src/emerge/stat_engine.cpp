#include "emerge/stat_engine.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace emergence::core {
namespace {

/// One occupancy segment of a holder slot: [start, end) with a malicious
/// flag. The last segment of a timeline extends to the simulation horizon.
struct Segment {
  double start;
  double end;
  bool malicious;
};

/// Renewal timeline of one holder slot up to `horizon`. The first occupant
/// comes from the population (hypergeometric draw); replacements are fresh
/// joins with malicious probability p.
struct SlotTimeline {
  std::vector<Segment> segments;

  bool any_malicious_before(double t) const {
    for (const Segment& s : segments) {
      if (s.start > t) break;
      if (s.malicious) return true;
    }
    return false;
  }

  const Segment& occupant_at(double t) const {
    for (const Segment& s : segments) {
      if (t >= s.start && t < s.end) return s;
    }
    return segments.back();
  }
};

SlotTimeline simulate_slot(double horizon, MaliciousSampler& sampler,
                           const ChurnSpec& churn, Rng& rng) {
  SlotTimeline timeline;
  bool malicious = sampler.draw();
  if (!churn.enabled) {
    timeline.segments.push_back(Segment{0.0, horizon, malicious});
    return timeline;
  }
  double t = 0.0;
  for (;;) {
    // Residual lifetime of the current occupant (memoryless).
    const double death = t + rng.exponential(churn.mean_lifetime);
    if (death >= horizon) {
      timeline.segments.push_back(Segment{t, horizon, malicious});
      return timeline;
    }
    timeline.segments.push_back(Segment{t, death, malicious});
    t = death;
    malicious = sampler.draw_fresh();
  }
}

/// True when there is an instant <= t at which the occupants of all k slots
/// are simultaneously malicious (the adversary can then destroy every stored
/// replica of a column key, making it unrecoverable).
bool all_malicious_instant(const std::vector<SlotTimeline>& slots, double t) {
  // Cheap pre-check: every slot needs some malicious occupant before t.
  for (const SlotTimeline& s : slots) {
    if (!s.any_malicious_before(t)) return false;
  }
  // Sweep the merged segment boundaries.
  std::vector<double> boundaries;
  for (const SlotTimeline& s : slots) {
    for (const Segment& seg : s.segments) {
      if (seg.start <= t) boundaries.push_back(seg.start);
    }
  }
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());
  for (double b : boundaries) {
    bool all = true;
    for (const SlotTimeline& s : slots) {
      if (!s.occupant_at(b).malicious) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

}  // namespace

StatRunOutcome run_centralized_stat(const StatEnvironment& env, Rng& rng) {
  MaliciousSampler sampler(env.population, env.malicious_count, rng);
  const double horizon = env.churn.enabled ? env.churn.emerging_time : 1.0;
  const ChurnSpec churn = env.churn;
  const SlotTimeline slot = simulate_slot(horizon, sampler, churn, rng);
  // Any ever-occupant is exposed to the key (replication repairs the stored
  // key onto replacements) and can both leak it and destroy it.
  const bool compromised = slot.any_malicious_before(horizon);
  StatRunOutcome out;
  out.release_success = compromised;
  out.drop_success = compromised;
  out.compromised_suffix = compromised ? 1 : 0;
  return out;
}

StatRunOutcome run_multipath_stat(SchemeKind kind, const PathShape& shape,
                                  const StatEnvironment& env, Rng& rng) {
  require(kind == SchemeKind::kDisjoint || kind == SchemeKind::kJoint,
          "run_multipath_stat: disjoint or joint only");
  const std::size_t k = shape.k;
  const std::size_t l = shape.l;
  require(k >= 1 && l >= 1, "run_multipath_stat: degenerate shape");

  MaliciousSampler sampler(env.population, env.malicious_count, rng);
  const double T = env.churn.enabled ? env.churn.emerging_time : 1.0;
  const double th = T / static_cast<double>(l);

  std::vector<bool> column_compromised(l);  // release-ahead, per column
  std::vector<bool> key_destroyed(l);       // all-concurrent-malicious drop
  std::vector<bool> column_forwards(l);     // joint: >=1 slot delivers
  // disjoint: per-path delivery chain.
  std::vector<bool> path_alive(k, true);

  for (std::size_t j = 1; j <= l; ++j) {
    const double arrive = static_cast<double>(j - 1) * th;
    const double forward = static_cast<double>(j) * th;

    std::vector<SlotTimeline> slots;
    slots.reserve(k);
    for (std::size_t i = 0; i < k; ++i)
      slots.push_back(simulate_slot(forward, sampler, env.churn, rng));

    // Release-ahead: layer key K_j is stored on each column-j slot from ts
    // until its use at `arrive`; every occupant in that window learns it.
    bool compromised = false;
    for (const SlotTimeline& s : slots) {
      if (s.any_malicious_before(arrive)) {
        compromised = true;
        break;
      }
    }
    column_compromised[j - 1] = compromised;

    // Drop by key destruction: all concurrent occupants malicious at some
    // instant before the key is used.
    key_destroyed[j - 1] = all_malicious_instant(slots, arrive);

    // Package delivery: the occupant at onion arrival must be honest and
    // survive the holding period (in-transit packages are not repaired).
    bool any_delivers = false;
    for (std::size_t i = 0; i < k; ++i) {
      const Segment& occ = slots[i].occupant_at(arrive);
      const bool delivers = !occ.malicious && occ.end >= forward;
      if (delivers) any_delivers = true;
      if (kind == SchemeKind::kDisjoint && !delivers) path_alive[i] = false;
    }
    column_forwards[j - 1] = any_delivers;
  }

  StatRunOutcome out;

  // Release-ahead success: every column's key collected (paper's model; the
  // Monte-Carlo and eqs. 1/churn-extensions agree on this event).
  out.release_success = std::all_of(column_compromised.begin(),
                                    column_compromised.end(),
                                    [](bool b) { return b; });

  // Longest fully-compromised suffix (ablation semantics).
  std::size_t suffix = 0;
  for (std::size_t j = l; j >= 1; --j) {
    if (!column_compromised[j - 1]) break;
    ++suffix;
    if (j == 1) break;
  }
  out.compromised_suffix = suffix;

  // Drop success.
  const bool any_key_destroyed =
      std::any_of(key_destroyed.begin(), key_destroyed.end(),
                  [](bool b) { return b; });
  if (kind == SchemeKind::kDisjoint) {
    const bool all_paths_severed =
        std::none_of(path_alive.begin(), path_alive.end(),
                     [](bool b) { return b; });
    out.drop_success = any_key_destroyed || all_paths_severed;
  } else {
    const bool all_columns_forward =
        std::all_of(column_forwards.begin(), column_forwards.end(),
                    [](bool b) { return b; });
    out.drop_success = any_key_destroyed || !all_columns_forward;
  }
  return out;
}

StatRunOutcome run_share_stat(const SharePlan& plan,
                              const StatEnvironment& env, Rng& rng) {
  const std::size_t k = plan.base.shape.k;
  const std::size_t l = plan.base.shape.l;
  const std::size_t n = plan.alg1.n;
  require(n >= k, "run_share_stat: n must be >= k (onion slots per column)");

  MaliciousSampler sampler(env.population, env.malicious_count, rng);
  const double T = env.churn.enabled ? env.churn.emerging_time : 1.0;
  const double th = T / static_cast<double>(l);
  const double pdie =
      env.churn.enabled ? -std::expm1(-th / env.churn.mean_lifetime) : 0.0;

  // Columns 1..l-1 have n holders (k onion slots + n-k share carriers);
  // column l has only the k onion slots (Fig. 5: no extra holder in the
  // terminal column).
  //
  // Release semantics (cross-validated against the full protocol stack by
  // workload/crossval.*): reconstructing the keys of *one* column
  // compromises every later column. Each column-c envelope carries that
  // holder's share of every column-(c+1) key, so m malicious carriers in a
  // column the packages reached open their own envelopes, combine m shares
  // per next-column key, and unravel the rest of the captured onion to the
  // terminal payload — the attack engine's fixpoint cascade in
  // adversary.cpp, and the same any-column accumulation Algorithm 1's
  // analytic pr uses. The earliest such column decides how many holding
  // periods before tr the coalition first holds the secret.
  StatRunOutcome out;
  bool release_flow = true;  // shares still flowing (covert attack)
  bool drop_flow = true;     // protocol alive under dropping attack
  std::size_t restore_margin = 0;  // holding periods before tr; 0 = never

  std::size_t prev_alive = 0;       // carriers surviving their hold
  std::size_t prev_functional = 0;  // honest & alive & keyed carriers

  for (std::size_t col = 1; col <= l; ++col) {
    const std::size_t holders = (col == l) ? k : n;

    // Key availability at this column: who can reconstruct the column key
    // from the shares carried by column col-1?
    bool col_recon_release;  // honest holders reconstruct (covert attack)
    bool col_recon_drop;     // honest holders reconstruct (dropping attack)
    if (col == 1) {
      // Keys are delivered directly by the sender at ts.
      col_recon_release = true;
      col_recon_drop = true;
    } else {
      const std::size_t m = plan.alg1.threshold_for_column(col);
      col_recon_release = release_flow && prev_alive >= m;
      col_recon_drop = drop_flow && prev_functional >= m;
    }

    std::size_t malicious = 0, alive_cnt = 0, functional = 0;
    std::size_t onion_malicious = 0, onion_functional = 0;
    for (std::size_t i = 0; i < holders; ++i) {
      const bool mal = sampler.draw();
      const bool survives = !(pdie > 0.0 && rng.chance(pdie));
      if (mal) ++malicious;
      if (survives) ++alive_cnt;
      const bool func = !mal && survives && col_recon_drop;
      if (func) ++functional;
      if (i < k) {  // the onion slots are the first k holders of the column
        if (mal) ++onion_malicious;
        if (func) ++onion_functional;
      }
    }

    // Flow updates affecting the *next* column.
    release_flow = release_flow && col_recon_release;
    drop_flow = drop_flow && col_recon_drop;

    // Cascade: m_{col+1} malicious carriers in a reached column reconstruct
    // the next column's keys and the whole remaining onion at
    // package-arrival time ts + (col-1)*th = l - col + 1 periods before tr.
    if (restore_margin == 0 && release_flow && col < l &&
        malicious >= plan.alg1.threshold_for_column(col + 1)) {
      restore_margin = l - col + 1;
    }
    // A malicious terminal onion slot sees the payload one period early
    // (the unavoidable leak the strict Rr metric excludes; design-notes §2).
    if (restore_margin == 0 && col == l && release_flow &&
        onion_malicious >= 1) {
      restore_margin = 1;
    }

    if (col == l) {
      // Receiver needs at least one functional terminal onion slot.
      const bool delivered = col_recon_drop && onion_functional >= 1;
      out.drop_success = !delivered;
    }

    prev_alive = alive_cnt;
    prev_functional = functional;
  }

  // Strict Rr: the pure terminal-slot leak (margin 1 with no cascade) does
  // not count as a successful release-ahead attack.
  out.release_success = restore_margin >= 2;
  out.compromised_suffix = restore_margin;
  return out;
}

}  // namespace emergence::core
