#include "sim/timer_queue.hpp"

#include <cassert>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace emergence::sim {

Time TimerQueue::deadline_in(Time now, Time delay) {
  require(delay >= 0.0, "schedule_in: negative or NaN delay");
  return now + delay;
}

TimerQueue::Lane TimerQueue::add_lane() {
  lanes_.emplace_back();
  return Lane{static_cast<std::uint32_t>(lanes_.size() - 1)};
}

EventId TimerQueue::id_of(std::uint32_t slot) const {
  return (static_cast<EventId>(slots_[slot].generation) << 32) | slot;
}

TimerQueue::Item TimerQueue::admit(Time at, Time now, Action&& action) {
  require(!std::isnan(at), "schedule_at: NaN deadline");
  if (at < now) at = now;
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.pending = true;
  ++live_;
  if (++items_ > max_depth_) max_depth_ = items_;
  return Item{at, next_seq_++, slot};
}

EventId TimerQueue::push(Time at, Time now, Action action) {
  const Item item = admit(at, now, std::move(action));
  heap_push(item);
  return id_of(item.slot);
}

EventId TimerQueue::push(Lane lane, Time at, Time now, Action action) {
  const Item item = admit(at, now, std::move(action));
  std::deque<Item>& fifo = lanes_[static_cast<std::uint32_t>(lane)];
  if (fifo.empty() || !(item.at < fifo.back().at)) {
    fifo.push_back(item);
  } else {
    heap_push(item);
  }
  return id_of(item.slot);
}

void TimerQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // Destroyed on return, after the slot is free: a destructor may re-enter
  // the queue. (A moved-from std::function may still hold its target.)
  const Action dropped = std::move(s.action);
  s.pending = false;
  if (++s.generation == 0) s.generation = 1;  // ids are never 0
  free_.push_back(slot);
}

void TimerQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (!s.pending || s.generation != static_cast<std::uint32_t>(id >> 32)) {
    return;
  }
  // The item stays queued as a tombstone; the callable goes now, on return
  // (its destructor may re-enter the queue).
  const Action dropped = std::move(s.action);
  s.pending = false;
  --live_;
  ++tombstones_;
  ++cancelled_;
}

void TimerQueue::heap_push(const Item& item) {
  std::size_t i = heap_.size();
  heap_.push_back(item);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(item, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = item;
  if (heap_.size() > max_heap_depth_) max_heap_depth_ = heap_.size();
}

void TimerQueue::heap_pop() {
  const Item last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

const TimerQueue::Item& TimerQueue::item_at(int source) const {
  return source == kHeap ? heap_.front()
                         : lanes_[static_cast<std::size_t>(source)].front();
}

int TimerQueue::head() {
  if (tombstones_ > 0) {
    while (!heap_.empty() && !slots_[heap_.front().slot].pending) {
      release(heap_.front().slot);
      heap_pop();
      --items_;
      --tombstones_;
    }
    for (std::deque<Item>& fifo : lanes_) {
      while (!fifo.empty() && !slots_[fifo.front().slot].pending) {
        release(fifo.front().slot);
        fifo.pop_front();
        --items_;
        --tombstones_;
      }
    }
  }
  int best = heap_.empty() ? kEmpty : kHeap;
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    if (lanes_[l].empty()) continue;
    if (best == kEmpty || earlier(lanes_[l].front(), item_at(best))) {
      best = static_cast<int>(l);
    }
  }
  return best;
}

std::optional<Time> TimerQueue::next_time() {
  const int source = head();
  if (source == kEmpty) return std::nullopt;
  return item_at(source).at;
}

TimerQueue::Fired TimerQueue::pop() {
  const int source = head();
  assert(source != kEmpty && "TimerQueue::pop on an empty queue");
  const Item item = item_at(source);
  if (source == kHeap) {
    heap_pop();
  } else {
    lanes_[static_cast<std::size_t>(source)].pop_front();
    ++lane_fires_;
  }
  --items_;
  --live_;
  ++executed_;
  Fired fired{item.at, std::move(slots_[item.slot].action)};
  release(item.slot);
  return fired;
}

}  // namespace emergence::sim
