// Tests for the cross-validation harness: thread-count invariance of the
// full-stack fleet tallies, cross-validation gates at smoke scale, and the
// regression coverage for the divergences the harness flagged (share-scheme
// release cascade, stored-key replication placement, delivery timing).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "workload/crossval.hpp"

namespace emergence::workload {
namespace {

using core::AttackMode;
using core::DhtBackend;
using core::SchemeKind;
using core::SweepOptions;
using core::SweepRunner;

ScenarioSpec smoke_scenario(std::size_t runs = 24,
                            std::size_t sessions_per_world = 1) {
  ScenarioSpec s = crossval_spec("smoke", runs, sessions_per_world);
  s.scheme = SchemeKind::kJoint;
  s.shape = core::PathShape{2, 3};
  s.population = 48;
  s.malicious_p = 0.3;
  s.seed = 0x5E2E;
  return s;
}

void expect_all_pass(const CrossValResult& result) {
  ASSERT_FALSE(result.metrics.empty());
  for (const CrossValMetric& m : result.metrics) {
    EXPECT_TRUE(m.pass) << m.metric << " fs=" << m.full_stack
                        << " stat=" << m.stat_engine << " bound=" << m.bound;
  }
}

TEST(E2eRunner, TalliesBitIdenticalAt1And2And8Threads) {
  // The acceptance bar of the harness: a scenario's result is a pure
  // function of the scenario, never of the thread count.
  const ScenarioSpec scenario = smoke_scenario(24, 2);  // multi-session too

  SweepRunner one(SweepOptions{1, 64});
  SweepRunner two(SweepOptions{2, 64});
  SweepRunner eight(SweepOptions{8, 64});
  const FleetTally t1 = run_scenario(one, scenario);
  const FleetTally t2 = run_scenario(two, scenario);
  const FleetTally t8 = run_scenario(eight, scenario);

  EXPECT_EQ(t1.trials(), 48u);
  EXPECT_EQ(t1.worlds, 24u);
  EXPECT_EQ(t1.fingerprint(), t2.fingerprint());
  EXPECT_EQ(t1.fingerprint(), t8.fingerprint());
}

TEST(E2eRunner, ChurnTalliesBitIdenticalAcrossThreads) {
  // Churn worlds replay maintenance, repair and replacement joins from the
  // run seed alone; address-dependent state anywhere would break this.
  ScenarioSpec scenario = smoke_scenario(10);
  scenario.churn = true;

  SweepRunner one(SweepOptions{1, 64});
  SweepRunner eight(SweepOptions{8, 64});
  const FleetTally t1 = run_scenario(one, scenario);
  const FleetTally t8 = run_scenario(eight, scenario);
  EXPECT_GT(t1.churn_deaths, 0u);
  EXPECT_EQ(t1.fingerprint(), t8.fingerprint());
}

TEST(E2eRunner, RepeatedEvaluationIsDeterministic) {
  SweepRunner sweeps(SweepOptions{0, 64});
  const FleetTally a = run_scenario(sweeps, smoke_scenario());
  const FleetTally b = run_scenario(sweeps, smoke_scenario());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

// -- cross-validation gates at smoke scale ------------------------------------

TEST(E2eCrossVal, CovertJointReleaseMatchesStatEngine) {
  SweepRunner sweeps(SweepOptions{0, 64});
  const CrossValResult result =
      cross_validate(sweeps, smoke_scenario(80), 4000);
  expect_all_pass(result);
  // Covert, no churn: every session delivers, exactly at tr.
  EXPECT_EQ(result.full_stack.sessions_delivered, result.full_stack.trials());
  EXPECT_EQ(result.full_stack.delivered_on_time,
            result.full_stack.sessions_delivered);
  EXPECT_EQ(result.full_stack.max_delivery_offset_ns, 0);
}

TEST(E2eCrossVal, ShareSchemeCascadeReleaseMatchesStatEngine) {
  // Regression for the divergence this harness flagged: the stat engine
  // used to require the coalition to reach the Shamir threshold in *every*
  // column, while the attack engine's fixpoint cascades from any one
  // column. Both engines now score the any-column event.
  SweepRunner sweeps(SweepOptions{0, 64});
  ScenarioSpec scenario = smoke_scenario(80);
  scenario.scheme = SchemeKind::kShare;
  scenario.carriers_n = 4;
  scenario.threshold_m = 2;
  const CrossValResult result = cross_validate(sweeps, scenario, 4000);
  expect_all_pass(result);
  // The cascade event is frequent at p = 0.3 (any column with >= 2 of 4
  // malicious carriers); the old all-columns semantics put the stat rate
  // several bounds below the full stack.
  EXPECT_GT(result.stat.release.rate(), 0.3);
}

TEST(E2eCrossVal, DroppingAdversaryDropRateMatchesStatEngine) {
  SweepRunner sweeps(SweepOptions{0, 64});
  ScenarioSpec scenario = smoke_scenario(80);
  scenario.attack_mode = AttackMode::kDropping;
  expect_all_pass(cross_validate(sweeps, scenario, 4000));
}

TEST(E2eCrossVal, ChurnAvailabilityMatchesRenewalModel) {
  // Regression for the replication divergence this harness flagged: stored
  // layer keys used to live under a hashed storage key unrelated to the
  // holder's ring point, so replica repair pushed copies to the wrong
  // nodes and churn replacements could never reconstruct — drop rates sat
  // far above the stat engine's renewal model.
  SweepRunner sweeps(SweepOptions{0, 64});
  ScenarioSpec scenario = smoke_scenario(60);
  scenario.malicious_p = 0.0;
  scenario.churn = true;
  const CrossValResult result = cross_validate(sweeps, scenario, 4000);
  expect_all_pass(result);
  EXPECT_GT(result.full_stack.churn_deaths, 0u);
}

TEST(E2eCrossVal, KademliaBackendPasses) {
  SweepRunner sweeps(SweepOptions{0, 64});
  ScenarioSpec scenario = smoke_scenario(60);
  scenario.backend = DhtBackend::kKademlia;
  expect_all_pass(cross_validate(sweeps, scenario, 4000));
}

// -- plumbing -----------------------------------------------------------------

TEST(E2eRunner, RestoreMarginPeriods) {
  // tr = 300, th = 100, l = 3.
  EXPECT_EQ(SessionFleet::restore_margin_periods(0.5, 300.0, 100.0, 3), 3u);
  EXPECT_EQ(SessionFleet::restore_margin_periods(100.5, 300.0, 100.0, 3), 2u);
  EXPECT_EQ(SessionFleet::restore_margin_periods(201.1, 300.0, 100.0, 3), 1u);
  EXPECT_EQ(SessionFleet::restore_margin_periods(299.9, 300.0, 100.0, 3), 0u);
  // Clamped to the path length even for possession at (or fractionally
  // before) ts.
  EXPECT_EQ(SessionFleet::restore_margin_periods(-20.0, 300.0, 100.0, 3), 3u);
}

TEST(E2eRunner, RejectsDegenerateScenarios) {
  // Crossval points are ScenarioSpecs: ScenarioSpec::validate rejects them
  // before any world is built.
  SweepRunner sweeps(SweepOptions{1, 64});
  ScenarioSpec bad = smoke_scenario();
  bad.worlds = 0;
  EXPECT_THROW(cross_validate(sweeps, bad, 100), PreconditionError);
  ScenarioSpec bad_p = smoke_scenario();
  bad_p.malicious_p = 1.5;
  EXPECT_THROW(cross_validate(sweeps, bad_p, 100), PreconditionError);
  ScenarioSpec bad_share = smoke_scenario();
  bad_share.scheme = SchemeKind::kShare;
  bad_share.carriers_n = 3;
  bad_share.threshold_m = 5;
  EXPECT_THROW(cross_validate(sweeps, bad_share, 100), PreconditionError);
}

TEST(E2eRunner, DefaultMatrixCoversTheAdvertisedAxes) {
  const std::vector<ScenarioSpec> matrix = default_crossval_matrix(10);
  bool schemes[4] = {false, false, false, false};
  bool kademlia = false, churn = false, dropping = false, multi = false;
  for (const ScenarioSpec& s : matrix) {
    schemes[static_cast<std::size_t>(s.scheme)] = true;
    kademlia = kademlia || s.backend == DhtBackend::kKademlia;
    churn = churn || s.churn;
    dropping = dropping || s.attack_mode == AttackMode::kDropping;
    multi = multi || s.sessions > s.worlds;
    EXPECT_EQ(s.worlds, 10u);
    EXPECT_NO_THROW(s.validate()) << s.name;
  }
  for (bool scheme : schemes) EXPECT_TRUE(scheme);
  EXPECT_TRUE(kademlia);
  EXPECT_TRUE(churn);
  EXPECT_TRUE(dropping);
  EXPECT_TRUE(multi);
}

}  // namespace
}  // namespace emergence::workload
