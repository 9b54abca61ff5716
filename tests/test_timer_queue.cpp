// The one timer queue (sim/timer_queue.hpp) through both of its drivers.
//
// A seeded random script schedules, cancels and runs events on the
// Simulator (heap and lane pushes, out-of-order lane pushes, same-instant
// ties, past deadlines, re-entrant schedules and cancels from inside
// callbacks) and on a reference clock that keeps every pending event in
// one std::set sorted by (at, push order). Both runs draw the script from
// the same seed, so they make the same calls as long as they fire in the
// same order; the test compares every fire and every pending / executed /
// cancelled reading. The same script runs on a WallClock with every
// deadline already due, where the past-deadline clamp makes the order
// FIFO. Targeted cases pin the WallClock contract and the id encoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_queue.hpp"
#include "sim/wall_clock.hpp"

namespace emergence::sim {
namespace {

/// Reference clock: one sorted set, ids = push order + 1. In wall mode
/// every deadline counts as already past, so it clamps to one common now
/// and the order is push order.
class RefClock {
 public:
  explicit RefClock(bool wall) : wall_(wall) {}

  Simulator::Lane add_lane() { return Simulator::Lane{}; }
  EventId schedule_at(Time at, std::function<void()> action) {
    return add(wall_ ? 0.0 : (at < now_ ? now_ : at), std::move(action));
  }
  EventId schedule_in(Time delay, std::function<void()> action) {
    return add(wall_ ? 0.0 : TimerQueue::deadline_in(now_, delay),
               std::move(action));
  }
  EventId schedule_in_lane(Simulator::Lane, Time delay,
                           std::function<void()> action) {
    return schedule_in(delay, std::move(action));
  }
  void cancel(EventId id) {
    if (id == 0 || id > events_.size()) return;
    Event& e = events_[id - 1];
    if (!e.pending) return;
    e.pending = false;
    e.action = nullptr;
    queue_.erase({e.at, id - 1});
    ++cancelled_;
  }
  Time now() const { return now_; }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t executed_events() const { return executed_; }
  std::uint64_t cancelled_events() const { return cancelled_; }

  std::size_t step(std::size_t n) {
    std::size_t ran = 0;
    for (; ran < n && !queue_.empty(); ++ran) fire_head();
    return ran;
  }
  void run() { step(SIZE_MAX); }
  void run_until(Time deadline) {
    while (!queue_.empty() && queue_.begin()->first <= deadline) fire_head();
    now_ = deadline;
  }
  void run_before(Time end) {
    while (!queue_.empty() && queue_.begin()->first < end) fire_head();
    now_ = end;
  }
  std::size_t fire_due() { return step(SIZE_MAX); }

 private:
  struct Event {
    Time at;
    std::function<void()> action;
    bool pending = true;
  };
  EventId add(Time at, std::function<void()> action) {
    queue_.insert({at, events_.size()});
    events_.push_back(Event{at, std::move(action)});
    return events_.size();
  }
  void fire_head() {
    const auto [at, index] = *queue_.begin();
    queue_.erase(queue_.begin());
    Event& e = events_[index];
    e.pending = false;
    std::function<void()> action = std::move(e.action);
    if (!wall_) now_ = at;
    ++executed_;
    action();
  }

  bool wall_;
  Time now_ = 0.0;
  std::set<std::pair<Time, std::size_t>> queue_;
  std::vector<Event> events_;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
};

/// An id no clock ever issued: the top generation bit flipped (a real slot
/// would need 2^31 reuses to reach it; a reference id is far below it).
EventId forged(EventId id) { return id ^ (std::uint64_t{1} << 63); }

/// The random script. `kWall` runs it the way a daemon drives a WallClock:
/// deadlines from the distant past (every one already due), no lanes, and
/// fire_due() in place of the virtual-time run loops.
template <class C, bool kWall>
class Script {
 public:
  Script(C& clock, std::uint64_t seed) : clock_(clock), rng_(seed) {
    if constexpr (!kWall) {
      lanes_[0] = clock_.add_lane();
      lanes_[1] = clock_.add_lane();
    }
  }

  std::vector<std::string> run() {
    push_some(1 + rng_.index(24));
    for (int round = 0; round < 24; ++round) {
      const std::size_t op = rng_.index(kWall ? 3 : 5);
      if (op == 0) {
        push_some(1 + rng_.index(6));
      } else if (op == 1) {
        cancel_some(1 + rng_.index(4));
      } else if (op == 2) {
        note("drain", drain_some());
      } else if constexpr (!kWall) {
        if (op == 3) {
          clock_.run_until(clock_.now() + grid());
        } else {
          clock_.run_before(clock_.now() + grid());
        }
      }
      snapshot();
    }
    if constexpr (kWall) {
      note("fire_due", clock_.fire_due());
    } else {
      clock_.run();
    }
    snapshot();
    return trace_;
  }

 private:
  static constexpr std::size_t kMaxPushes = 240;

  /// A coarse grid, so same-instant ties are common.
  Time grid() { return 0.25 * static_cast<double>(rng_.index(9)); }

  std::size_t drain_some() {
    if constexpr (kWall) {
      return clock_.fire_due();
    } else {
      return clock_.step(1 + rng_.index(8));
    }
  }

  void push_some(std::size_t count) {
    for (std::size_t i = 0; i < count && ids_.size() < kMaxPushes; ++i) {
      push();
    }
  }

  void push() {
    const std::size_t label = ids_.size();
    auto action = [this, label] { on_fire(label); };
    ids_.push_back(0);
    EventId id = 0;
    const std::size_t kind = rng_.index(4);
    if constexpr (kWall) {
      // Every deadline is long past: seconds after the Unix epoch, or a
      // zero delay from now.
      if (kind == 0) {
        id = clock_.schedule_in(0.0, std::move(action));
      } else {
        id = clock_.schedule_at(grid(), std::move(action));
      }
    } else if (kind < 2) {
      // A lane push at the lane's own fixed delay (joins the lane), or now
      // and then at a shorter one (lands below the tail: heap).
      const std::size_t lane = kind;
      const Time fixed = lane == 0 ? 1.0 : 2.5;
      const Time delay = rng_.chance(0.8) ? fixed : grid() * 0.5;
      id = clock_.schedule_in_lane(lanes_[lane], delay, std::move(action));
    } else if (kind == 2) {
      id = clock_.schedule_in(grid(), std::move(action));
    } else {
      // Absolute deadline, up to a second in the past (clamped to now).
      id = clock_.schedule_at(clock_.now() + grid() - 1.0, std::move(action));
    }
    ids_[label] = id;
  }

  void cancel_some(std::size_t count) {
    for (std::size_t i = 0; i < count && !ids_.empty(); ++i) {
      switch (rng_.index(5)) {
        case 0: clock_.cancel(0); break;
        case 1: clock_.cancel(forged(ids_[rng_.index(ids_.size())])); break;
        case 2:
          // The latest fired event: its slot is the next one a push reuses.
          if (last_fired_ < ids_.size()) clock_.cancel(ids_[last_fired_]);
          break;
        default: {
          // Any id ever issued: live, fired, cancelled, or recycled.
          const EventId id = ids_[rng_.index(ids_.size())];
          clock_.cancel(id);
          if (rng_.chance(0.3)) clock_.cancel(id);  // double cancel
          break;
        }
      }
    }
  }

  void on_fire(std::size_t label) {
    last_fired_ = label;
    note("fire", label);
    snapshot();
    if (rng_.chance(0.2)) clock_.cancel(ids_[label]);  // self: a no-op
    if (rng_.chance(0.5)) push_some(1 + rng_.index(3));
    if (rng_.chance(0.3)) cancel_some(1 + rng_.index(2));
  }

  void note(const char* what, std::size_t value) {
    std::ostringstream line;
    line << what << ' ' << value;
    if constexpr (!kWall) line << " @" << clock_.now();
    trace_.push_back(line.str());
  }

  void snapshot() {
    std::ostringstream line;
    line << "pending " << clock_.pending() << " executed "
         << clock_.executed_events() << " cancelled "
         << clock_.cancelled_events();
    trace_.push_back(line.str());
  }

  C& clock_;
  Rng rng_;
  Simulator::Lane lanes_[2]{};
  std::vector<EventId> ids_;  ///< by label (push order)
  std::size_t last_fired_ = SIZE_MAX;
  std::vector<std::string> trace_;
};

/// Empty when equal, else the first differing line with its index.
std::string first_difference(const std::vector<std::string>& expect,
                             const std::vector<std::string>& got) {
  for (std::size_t i = 0; i < expect.size() || i < got.size(); ++i) {
    const std::string e = i < expect.size() ? expect[i] : "<end>";
    const std::string g = i < got.size() ? got[i] : "<end>";
    if (e != g) {
      return "line " + std::to_string(i) + ": expected '" + e + "', got '" +
             g + "'";
    }
  }
  return "";
}

TEST(TimerQueue, SimulatorMatchesTheReferenceOrderOverManySeeds) {
  std::uint64_t lane_fires = 0, executed = 0, heap_peak = 0;
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    RefClock ref(false);
    const auto expect = Script<RefClock, false>(ref, seed).run();
    Simulator sim;
    const auto got = Script<Simulator, false>(sim, seed).run();
    ASSERT_EQ(first_difference(expect, got), "") << "seed " << seed;
    ASSERT_EQ(sim.pending(), 0u);
    lane_fires += sim.lane_fires();
    executed += sim.executed_events();
    heap_peak = std::max<std::uint64_t>(heap_peak, sim.max_heap_depth());
  }
  // The scripts exercised both halves of the merge.
  EXPECT_GT(lane_fires, executed / 4);
  EXPECT_LT(lane_fires, executed);
  EXPECT_GT(heap_peak, 0u);
}

TEST(TimerQueue, WallClockRunsTheSameScriptFifoWhenEverythingIsDue) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    RefClock ref(true);
    const auto expect = Script<RefClock, true>(ref, seed).run();
    WallClock wall;
    const auto got = Script<WallClock, true>(wall, seed).run();
    ASSERT_EQ(first_difference(expect, got), "") << "seed " << seed;
    ASSERT_EQ(wall.pending(), 0u);
  }
}

TEST(TimerQueue, StaleIdCannotCancelTheSlotsNextOccupant) {
  TimerQueue queue;
  const EventId first = queue.push(1.0, 0.0, [] {});
  ASSERT_TRUE(queue.next_time().has_value());
  queue.pop().action();
  bool fired = false;
  const EventId second = queue.push(2.0, 0.0, [&fired] { fired = true; });
  // Same slot (low 32 bits), next generation: opaque and distinct.
  EXPECT_EQ(first & 0xffffffffu, second & 0xffffffffu);
  EXPECT_NE(first, second);
  EXPECT_NE(first, 0u);
  EXPECT_NE(second, 0u);
  queue.cancel(first);  // stale: must not touch `second`
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_EQ(queue.cancelled(), 0u);
  ASSERT_TRUE(queue.next_time().has_value());
  queue.pop().action();
  EXPECT_TRUE(fired);
}

TEST(TimerQueue, LaneTakesInOrderPushesAndHeapTakesTheRest) {
  TimerQueue queue;
  const TimerQueue::Lane lane = queue.add_lane();
  std::vector<int> order;
  queue.push(lane, 2.0, 0.0, [&order] { order.push_back(2); });
  queue.push(lane, 3.0, 0.0, [&order] { order.push_back(3); });
  queue.push(lane, 3.0, 0.0, [&order] { order.push_back(4); });  // tie: lane
  queue.push(lane, 1.0, 0.0, [&order] { order.push_back(1); });  // below tail
  queue.push(3.0, 0.0, [&order] { order.push_back(5); });        // heap tie
  EXPECT_EQ(queue.max_heap_depth(), 2u);
  EXPECT_EQ(queue.max_depth(), 5u);
  while (queue.next_time()) queue.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(queue.lane_fires(), 3u);
  EXPECT_EQ(queue.executed(), 5u);
}

TEST(TimerQueue, RejectsNegativeAndNanDelaysAndNanDeadlines) {
  TimerQueue queue;
  EXPECT_THROW(TimerQueue::deadline_in(1.0, -1.0), PreconditionError);
  EXPECT_THROW(TimerQueue::deadline_in(1.0, std::nan("")),
               PreconditionError);
  EXPECT_EQ(TimerQueue::deadline_in(1.0, 0.0), 1.0);
  EXPECT_THROW(queue.push(std::nan(""), 0.0, [] {}), PreconditionError);
  EXPECT_EQ(queue.pending(), 0u);
}

// -- the WallClock keeps the Clock contract -----------------------------------
// clock.hpp promises that a past deadline clamps to now. The daemon's
// WallClock used to queue it as given, so overdue timers (a late
// hold_until deadline, for instance) fired in deadline order on real time
// but FIFO under the simulator; and a negative delay was accepted.

TEST(WallClock, PastDeadlinesClampToNowAndFireFifo) {
  WallClock clock;
  std::vector<int> order;
  const Time now = clock.now();
  clock.schedule_at(now - 10.0, [&order] { order.push_back(1); });
  clock.schedule_at(now - 20.0, [&order] { order.push_back(2); });
  EXPECT_EQ(clock.seconds_until_next(), 0.0);
  EXPECT_EQ(clock.fire_due(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(clock.pending(), 0u);
}

TEST(WallClock, NegativeDelayThrows) {
  WallClock clock;
  EXPECT_THROW(clock.schedule_in(-1.0, [] {}), PreconditionError);
  EXPECT_EQ(clock.pending(), 0u);
}

TEST(WallClock, CancelAndFutureDeadlines) {
  WallClock clock;
  bool fired = false;
  const EventId later = clock.schedule_in(3600.0, [&fired] { fired = true; });
  const EventId soon = clock.schedule_in(0.0, [&fired] { fired = true; });
  clock.cancel(soon);
  clock.cancel(soon);
  EXPECT_EQ(clock.cancelled_events(), 1u);
  EXPECT_EQ(clock.fire_due(), 0u);
  EXPECT_FALSE(fired);
  const std::optional<double> wait = clock.seconds_until_next();
  ASSERT_TRUE(wait.has_value());
  EXPECT_GT(*wait, 3500.0);
  clock.cancel(later);
  EXPECT_FALSE(clock.seconds_until_next().has_value());
  EXPECT_EQ(clock.pending(), 0u);
}

}  // namespace
}  // namespace emergence::sim
