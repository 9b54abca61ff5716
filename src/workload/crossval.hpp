// Cross-validation of the full protocol stack against the statistical
// engine (docs/architecture.md, "Two engines, one truth").
//
// A cross-validation point is an ordinary ScenarioSpec run on SessionFleet:
// `worlds` independent Monte-Carlo worlds — fresh simulator, DHT backend
// (Chord or Kademlia), cloud store, coalition — each streaming
// sessions / worlds concurrent sessions that arrive one virtual second
// apart, driven past tr and reaped into the exact-integer FleetTally.
// Worlds shard over SweepRunner::run_shards, so tallies are bit-identical
// at any thread count, like every other sweep in this repository.
//
// At a pinned parameter point the full stack and the stat engine estimate
// the same Bernoulli rates, so their difference is bounded by two-sample
// binomial noise. Release rates are gated on churn-free covert scenarios
// (where the engines define the identical event: the coalition first holds
// the secret >= x holding periods before tr); drop rates are gated on
// dropping-adversary and churn-availability scenarios. A divergence beyond
// the z-bound is, by construction, a bug in one of the engines — this
// harness has already flagged and fixed three (the share scheme's
// all-columns release semantics in stat_engine.cpp, its shared onion-slot
// keys, and the stored layer-key placement in protocol.cpp).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "emerge/sweep.hpp"
#include "workload/scenario.hpp"
#include "workload/session_fleet.hpp"

namespace emergence::workload {

/// One gated comparison between the engines.
struct CrossValMetric {
  std::string metric;
  double full_stack = 0.0;   ///< full-stack rate
  double stat_engine = 0.0;  ///< stat-engine rate
  double bound = 0.0;        ///< |full_stack - stat_engine| must be <= bound
  std::size_t fs_trials = 0;
  std::size_t stat_trials = 0;
  bool pass = true;

  double diff() const { return full_stack - stat_engine; }
};

/// Both engines' tallies at one scenario point plus the gated comparisons.
struct CrossValResult {
  ScenarioSpec scenario;
  FleetTally full_stack;
  core::RunTally stat;
  std::vector<CrossValMetric> metrics;

  bool pass() const;
};

/// A cross-validation point: `runs` worlds of `sessions_per_world`
/// sessions each, with the defaults that differ from ScenarioSpec's — the
/// paper's 100-node population, T = 1800 s, churn off (alpha = 1 once
/// switched on) and deterministic arrivals at 1/s.
ScenarioSpec crossval_spec(std::string name, std::size_t runs,
                           std::size_t sessions_per_world = 1);

/// Stat-engine tallies at the matched parameter point (same population,
/// malicious count, geometry, churn ratio).
core::RunTally stat_tallies(core::SweepRunner& sweeps, const ScenarioSpec& spec,
                            std::size_t stat_runs);

/// Runs both engines and gates the comparable rates within two-sample
/// binomial bounds: |p1 - p2| <= z * sqrt(pp*(1-pp)*(1/n1 + 1/n2)) +
/// (1/n1 + 1/n2), with pp the pooled rate and the additive term a
/// continuity correction so exact-zero rates cannot fail on one stray
/// success. z defaults to 4 (two-sided tail ~6e-5 per comparison, safe
/// across the whole matrix). The sessions of one world share a coalition
/// and a ring, so the bound conservatively uses the world count
/// (spec.worlds), not the session count, as the full-stack sample size.
CrossValResult cross_validate(core::SweepRunner& sweeps,
                              const ScenarioSpec& spec, std::size_t stat_runs,
                              double z = 4.0);

/// The pinned cross-validation matrix used by bench/e2e_crossval.cpp and
/// the CI smoke job: all four schemes, both backends, churn on/off,
/// covert/dropping adversaries, and 1..8 concurrent sessions, at points
/// where both engines define the same events (see cross_validate).
std::vector<ScenarioSpec> default_crossval_matrix(std::size_t runs,
                                                  std::size_t population = 100);

}  // namespace emergence::workload
