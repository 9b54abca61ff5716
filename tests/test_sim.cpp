// Unit tests for the discrete-event simulator.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/simulator.hpp"

namespace emergence::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_in(5.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 15.0);
}

// -- past-clamp semantics ----------------------------------------------------
// schedule_at with at < now used to throw. That precondition was a latent
// landmine for any caller computing an absolute schedule near now (the
// protocol's clamped forwards under lossy transports, redirected schedules
// at window barriers): a float rounding hair below now crashed the run.
// Pinned behavior: past times clamp deterministically to now — the event
// fires, never time-travels, and FIFO-orders after everything already
// pending at now. Negative *relative* delays are still programming errors.
TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  ASSERT_EQ(sim.now(), 10.0);

  std::vector<int> order;
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] { order.push_back(0); });
  // Clamped: fires at now (10.0), after the event already pending at 10.0.
  sim.schedule_at(5.0, [&] {
    order.push_back(1);
    fired_at = sim.now();
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(fired_at, 10.0);
  EXPECT_EQ(sim.now(), 10.0);  // no time travel

  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), emergence::PreconditionError);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(1.0, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelUnknownIdIsNoop) {
  Simulator sim;
  sim.cancel(9999);
  bool fired = false;
  sim.schedule_at(1.0, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0})
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  sim.run_until(2.5);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(sim.now(), 2.5);
  EXPECT_EQ(sim.pending(), 2u);
  sim.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Simulator, RunUntilIncludesDeadlineEvents) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(2.0, [&] { fired = true; });
  sim.run_until(2.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, StepLimitsExecution) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(static_cast<double>(i), [&] { ++count; });
  EXPECT_EQ(sim.step(2), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.step(100), 3u);
  EXPECT_EQ(count, 5);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 50) sim.schedule_in(1.0, chain);
  };
  sim.schedule_in(1.0, chain);
  sim.run();
  EXPECT_EQ(depth, 50);
  EXPECT_EQ(sim.now(), 50.0);
}

TEST(Simulator, ExecutedEventsCounted) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_in(1.0, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(Simulator, CancelledEventsNotCounted) {
  Simulator sim;
  const EventId id = sim.schedule_in(1.0, [] {});
  sim.schedule_in(2.0, [] {});
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Simulator, PendingReflectsCancellations) {
  Simulator sim;
  const EventId a = sim.schedule_in(1.0, [] {});
  sim.schedule_in(2.0, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunUntilPastDeadlineThrows) {
  Simulator sim;
  sim.run_until(5.0);
  EXPECT_THROW(sim.run_until(4.0), emergence::PreconditionError);
}

// -- run_before window semantics ---------------------------------------------
// The domain executor's windows are half-open [start, end): an event at
// exactly the barrier belongs to the NEXT window (run_until's inclusive
// <= deadline would run it twice — once per adjacent window).

TEST(Simulator, RunBeforeExcludesBarrierExactEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });  // exactly at barrier
  sim.run_before(2.0);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), 2.0);  // clock advances to the barrier regardless
  sim.run_before(3.0);  // the barrier event belongs to the next window
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RunBeforeRunsChainedSameWindowEvents) {
  Simulator sim;
  std::vector<double> fired;
  sim.schedule_at(1.0, [&] {
    fired.push_back(sim.now());
    // Scheduled inside the window, lands inside the window: same pass.
    sim.schedule_in(0.5, [&] { fired.push_back(sim.now()); });
    // Lands exactly on the barrier: next window.
    sim.schedule_in(1.0, [&] { fired.push_back(sim.now()); });
  });
  sim.run_before(2.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 1.5}));
  sim.run_before(3.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 1.5, 2.0}));
}

TEST(Simulator, RunBeforePastWindowEndThrows) {
  Simulator sim;
  sim.run_before(5.0);
  EXPECT_THROW(sim.run_before(4.0), emergence::PreconditionError);
}

// next_event_time must see through cancelled tombstones at the queue head —
// the executor sizes windows off it, and a stale tombstone time would make
// the window partition depend on cancellation history.
TEST(Simulator, NextEventTimePurgesCancelledTombstones) {
  Simulator sim;
  const EventId a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(3.0, [] {});
  sim.cancel(a);
  const std::optional<Time> next = sim.next_event_time();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 3.0);

  sim.cancel(sim.schedule_at(4.0, [] {}));
  EXPECT_EQ(sim.pending(), 1u);
}

// -- pending() bookkeeping regressions ---------------------------------------
// pending() used to compute queue_.size() - cancelled_.size() on unsigned
// values; cancelling an already-fired or unknown id inflated cancelled_ and
// underflowed the difference. These tests pin the fixed behavior.

TEST(Simulator, CancelAfterFireKeepsPendingCorrect) {
  Simulator sim;
  const EventId first = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.step(1), 1u);  // fires `first`
  sim.cancel(first);           // stale cancel: must be a no-op
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 2u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CancelUnknownIdKeepsPendingCorrect) {
  Simulator sim;
  sim.cancel(9999);  // never scheduled; used to underflow pending() to 2^64-1
  EXPECT_EQ(sim.pending(), 0u);
  sim.schedule_at(1.0, [] {});
  sim.cancel(424242);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Simulator, DoubleCancelCountsOnce) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  sim.cancel(id);
  sim.cancel(id);  // second cancel of the same id must not double-count
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Simulator, CancelledThenFiredIdCanBeCancelledAgainHarmlessly) {
  Simulator sim;
  const EventId a = sim.schedule_at(1.0, [] {});
  sim.run();
  sim.cancel(a);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 0u);
  bool fired = false;
  sim.schedule_at(2.0, [&] { fired = true; });
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
}

// -- run_until with same-timestamp events ------------------------------------

TEST(Simulator, RunUntilFiresAllSameTimestampEventsAtDeadline) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i)
    sim.schedule_at(3.0, [&order, i] { order.push_back(i); });
  sim.run_until(3.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(Simulator, RunUntilFiresEventsScheduledAtTheDeadlineDuringTheRun) {
  Simulator sim;
  bool chained = false;
  sim.schedule_at(3.0, [&] {
    sim.schedule_at(3.0, [&] { chained = true; });  // same-instant follow-up
  });
  sim.run_until(3.0);
  EXPECT_TRUE(chained);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunUntilSkipsCancelledHeadAtDeadline) {
  Simulator sim;
  std::vector<int> order;
  const EventId head = sim.schedule_at(2.0, [&] { order.push_back(0); });
  sim.schedule_at(2.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.cancel(head);
  sim.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(Simulator, CancelInterleavedWithRunUntilKeepsCountersConsistent) {
  // Regression for the consolidated cancelled-entry purge (ISSUE 3
  // satellite): fire_next and run_until used to maintain separate
  // cancelled_/queue_ bookkeeping; interleaving cancel() with run_until()
  // across deadlines must keep pending()/executed_events() exact, including
  // cancels of already-fired ids and cancels sitting at the queue head.
  Simulator sim;
  std::vector<int> fired;
  const EventId e1 = sim.schedule_at(1.0, [&] { fired.push_back(1); });
  const EventId e2 = sim.schedule_at(2.0, [&] { fired.push_back(2); });
  const EventId e3 = sim.schedule_at(3.0, [&] { fired.push_back(3); });
  const EventId e4 = sim.schedule_at(4.0, [&] { fired.push_back(4); });
  EXPECT_EQ(sim.pending(), 4u);

  sim.cancel(e2);  // tombstone ahead of the first run_until window
  EXPECT_EQ(sim.pending(), 3u);

  sim.run_until(2.5);  // fires e1; consumes e2's tombstone at the head
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.pending(), 2u);

  sim.cancel(e1);  // already fired: no-op
  sim.cancel(e2);  // already purged: no-op
  EXPECT_EQ(sim.pending(), 2u);

  sim.cancel(e3);  // now the queue head is a tombstone again
  EXPECT_EQ(sim.pending(), 1u);

  sim.run_until(5.0);  // skips e3, fires e4
  EXPECT_EQ(fired, (std::vector<int>{1, 4}));
  EXPECT_EQ(sim.executed_events(), 2u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.now(), 5.0);

  sim.cancel(e4);  // fired: no-op; counters untouched
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.step(4) > 0);  // queue genuinely empty, no stale entries
}

TEST(Simulator, NextEventTimePeeksHeadAndPurgesCancelledTombstones) {
  Simulator sim;
  EXPECT_FALSE(sim.next_event_time().has_value());

  const EventId early = sim.schedule_at(5.0, [] {});
  sim.schedule_at(9.0, [] {});
  ASSERT_TRUE(sim.next_event_time().has_value());
  EXPECT_DOUBLE_EQ(*sim.next_event_time(), 5.0);

  // Cancelling the head must surface the next live event (and consume the
  // tombstone, like run()/run_until() would).
  sim.cancel(early);
  ASSERT_TRUE(sim.next_event_time().has_value());
  EXPECT_DOUBLE_EQ(*sim.next_event_time(), 9.0);
  EXPECT_EQ(sim.pending(), 1u);

  sim.run_until(10.0);
  EXPECT_FALSE(sim.next_event_time().has_value());
}

TEST(Simulator, FifoAmongEqualTimestamps) {
  // Transport regression (PR 6): equal-timestamp events must fire in
  // scheduling order. A retransmit scheduled after an original send that
  // lands on the same instant must never overtake it — the retry chain's
  // determinism (and the TransportStats ordering) depends on it.
  Simulator sim;
  std::vector<int> fired;
  for (int i = 0; i < 16; ++i) {
    sim.schedule_at(7.0, [&fired, i] { fired.push_back(i); });
  }
  sim.run();
  std::vector<int> expect(16);
  for (int i = 0; i < 16; ++i) expect[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(fired, expect);
}

TEST(Simulator, FifoSurvivesCancelledPeersAtTheSameTimestamp) {
  // Same-instant FIFO with tombstones interleaved: cancelling some peers
  // (including the head) must not reorder the survivors, and a
  // next_event_time() peek mid-way (which purges cancelled heads) must not
  // disturb the order either.
  Simulator sim;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(sim.schedule_at(3.0, [&fired, i] { fired.push_back(i); }));
  }
  sim.cancel(ids[0]);  // head tombstone
  sim.cancel(ids[3]);
  sim.cancel(ids[7]);  // tail tombstone
  ASSERT_TRUE(sim.next_event_time().has_value());  // purges the head tombstone
  EXPECT_DOUBLE_EQ(*sim.next_event_time(), 3.0);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 4, 5, 6}));
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(Simulator, RetransmitScheduledLaterNeverOvertakesOriginalSend) {
  // The concrete transport shape: an "original" delivery at t=1.0 and a
  // "retransmit" scheduled afterwards for the same t=1.0 (a zero backoff
  // step, or two retry ladders colliding). Events scheduled from inside an
  // event at the current instant also run after everything already queued
  // at that instant.
  Simulator sim;
  std::vector<std::string> order;
  sim.schedule_at(1.0, [&] {
    order.push_back("original");
    // Re-entrant schedule at now: must fire this same instant, after the
    // already-queued retransmit below.
    sim.schedule_at(1.0, [&] { order.push_back("nested"); });
  });
  sim.schedule_at(1.0, [&] { order.push_back("retransmit"); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"original", "retransmit",
                                             "nested"}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

}  // namespace
}  // namespace emergence::sim
