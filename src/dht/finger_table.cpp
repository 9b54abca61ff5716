#include "dht/finger_table.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace emergence::dht {

std::size_t FingerTable::first_run_reaching(std::size_t power) const {
  auto it = std::lower_bound(
      runs_.begin(), runs_.end(), power,
      [](const Run& run, std::size_t p) { return run.hi < p; });
  return static_cast<std::size_t>(it - runs_.begin());
}

std::optional<NodeId> FingerTable::get(std::size_t power) const {
  require(power < kIdBits, "FingerTable::get: power out of range");
  const std::size_t i = first_run_reaching(power);
  if (i == runs_.size() || runs_[i].lo > power) return std::nullopt;
  return runs_[i].id;
}

void FingerTable::reserve_exact(std::size_t extra) {
  if (runs_.size() + extra > runs_.capacity()) {
    runs_.reserve(runs_.size() + extra);
  }
}

void FingerTable::merge_around(std::size_t i) {
  // Merge with the following run first so index i stays valid. Handles
  // compare like ids: one peer, one handle.
  if (i + 1 < runs_.size() && runs_[i].node == runs_[i + 1].node &&
      runs_[i].hi + 1 == runs_[i + 1].lo) {
    runs_[i].hi = runs_[i + 1].hi;
    runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
  }
  if (i > 0 && runs_[i - 1].node == runs_[i].node &&
      runs_[i - 1].hi + 1 == runs_[i].lo) {
    runs_[i - 1].hi = runs_[i].hi;
    runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void FingerTable::set(std::size_t power, const PeerRef& peer) {
  require(power < kIdBits, "FingerTable::set: power out of range");
  const std::uint8_t p = static_cast<std::uint8_t>(power);
  std::size_t i = first_run_reaching(power);

  if (i == runs_.size() || runs_[i].lo > p) {
    // Unset power: insert a fresh single-power run.
    reserve_exact(1);
    runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(i),
                 Run{p, p, peer.id, peer.node});
    merge_around(i);
    return;
  }

  Run& run = runs_[i];
  if (run.node == peer.node) return;  // already points there

  // Split the containing run around `power`.
  const Run old = run;
  if (old.lo == p && old.hi == p) {
    run.id = peer.id;
    run.node = peer.node;
    merge_around(i);
    return;
  }
  if (old.lo == p) {
    run.lo = static_cast<std::uint8_t>(p + 1);
    reserve_exact(1);
    runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(i),
                 Run{p, p, peer.id, peer.node});
    merge_around(i);
    return;
  }
  if (old.hi == p) {
    run.hi = static_cast<std::uint8_t>(p - 1);
    reserve_exact(1);
    runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                 Run{p, p, peer.id, peer.node});
    merge_around(i + 1);
    return;
  }
  // Interior split: [lo, p-1] id_old, [p, p] id, [p+1, hi] id_old.
  run.hi = static_cast<std::uint8_t>(p - 1);
  const Run tail{static_cast<std::uint8_t>(p + 1), old.hi, old.id, old.node};
  reserve_exact(2);
  runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
               {Run{p, p, peer.id, peer.node}, tail});
}

void FingerTable::append_run(std::size_t lo, std::size_t hi,
                             const PeerRef& peer) {
  require(lo <= hi && hi < kIdBits, "FingerTable::append_run: bad range");
  require(runs_.empty() || static_cast<std::size_t>(runs_.back().hi) < lo,
          "FingerTable::append_run: runs must arrive in ascending order");
  if (!runs_.empty() && runs_.back().node == peer.node &&
      static_cast<std::size_t>(runs_.back().hi) + 1 == lo) {
    runs_.back().hi = static_cast<std::uint8_t>(hi);
    return;
  }
  runs_.push_back(Run{static_cast<std::uint8_t>(lo),
                      static_cast<std::uint8_t>(hi), peer.id, peer.node});
}

}  // namespace emergence::dht
