// Deterministic structured tracing: spans that never perturb the world.
//
// Two families of spans are emitted through this layer:
//   * per-session lifecycle spans (submit -> onion build -> layer-key puts
//     -> each holding hop -> delivery/drop), recorded by the session fleet
//     at its serial reap barrier where every timing fact is known;
//   * per-message hop spans (one per transport attempt: delivered, dropped
//     + retried, or timed out), recorded by TransportModel::send, and the
//     wall-clock package/slot/deliver events of a live NodeDaemon.
//
// Determinism contract (the reason this is not just a logger):
//   1. Sampling decisions are pure functions of CONTENT, never of shard or
//      thread state: Rng(seed).fork(key) with the key derived from the
//      session index or the message's (from, to, send-time) — so the set
//      of sampled spans is identical at any thread or domain count and the
//      decision consumes ZERO draws from any world rng stream (fleet and
//      transport fingerprints are bit-identical with tracing on or off;
//      gated in CI).
//   2. Events land in per-shard append-only buffers (one shard per domain
//      plus the serial barrier shard — the same sharding idiom as the
//      TransportStats shards), so recording is lock-free on the hot path.
//   3. Exports canonically sort the merged event multiset by full content,
//      so the emitted bytes are invariant under any sharding of the same
//      events: a domains=1 run and a domains=8 run of the same scenario
//      write identical trace files.
//
// Sinks: write_chrome_trace() emits Chrome trace_event JSON (loadable in
// Perfetto / chrome://tracing; ts in microseconds of virtual time), and
// drain_jsonl() emits one JSON object per line: the live daemon's
// incremental append, which skips the canonical sort because a wall-clock
// daemon has no cross-run determinism to protect.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace emergence::obs {

/// One span (dur_us > 0) or instant (dur_us == 0). `id` groups related
/// events onto one timeline track (the session id, or 0 for transport).
struct TraceEvent {
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::string name;
  std::string cat;
  std::uint64_t id = 0;
  std::vector<std::pair<std::string, std::string>> args;

  /// Full-content ordering — the canonical export sort. Content-equal
  /// events compare equal and are BOTH kept (the multiset is the
  /// invariant, not the set).
  auto tie() const { return std::tie(ts_us, dur_us, cat, name, id, args); }
  bool operator<(const TraceEvent& other) const { return tie() < other.tie(); }
};

class Tracer;

/// One lock-free event buffer with a single writer (a domain worker, the
/// serial barrier, or a daemon pump). Allocated and owned by the Tracer.
class TraceShard {
 public:
  void record(TraceEvent event) { events_.push_back(std::move(event)); }

  /// The pure fork-keyed sampling decision (see Tracer::sample): safe to
  /// call from any shard without synchronization.
  bool sample(std::uint64_t key) const;

  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  friend class Tracer;
  explicit TraceShard(const Tracer* owner) : owner_(owner) {}
  const Tracer* owner_;
  std::vector<TraceEvent> events_;
};

class Tracer {
 public:
  /// `sample_rate` in [0, 1]: the fraction of sampling keys admitted.
  /// `seed` keys the decisions; the same (seed, rate, key) always decides
  /// the same way, on any shard of any run.
  Tracer(std::uint64_t seed, double sample_rate)
      : seed_(seed), rate_(sample_rate) {}

  /// Allocates a new single-writer shard (thread-safe; called at world /
  /// domain setup, never on the hot path). The shard lives as long as the
  /// tracer.
  TraceShard* new_shard();

  /// Pure decision: rate >= 1 admits everything (no rng construction),
  /// rate <= 0 nothing, else Rng(seed).fork(key).real() < rate. Never
  /// touches a world rng stream.
  bool sample(std::uint64_t key) const;

  double sample_rate() const { return rate_; }
  std::uint64_t seed() const { return seed_; }

  /// Total events recorded so far across all shards.
  std::size_t event_count() const;

  /// The merged multiset in canonical content order — identical for any
  /// sharding of the same events.
  std::vector<TraceEvent> sorted_events() const;

  /// Chrome trace_event JSON ({"traceEvents":[...]}), canonically sorted.
  void write_chrome_trace(std::ostream& os) const;
  /// Live sink: appends every buffered event as JSONL in arrival order and
  /// clears the buffers. No canonical sort — incremental wall-clock use.
  void drain_jsonl(std::ostream& os);

 private:
  std::uint64_t seed_;
  double rate_;
  mutable std::mutex shards_mutex_;
  std::vector<std::unique_ptr<TraceShard>> shards_;
};

/// Derives a hop-span sampling key from a message's endpoint id prefixes
/// and its send time (bit pattern), so retransmits of one logical message
/// share the original decision and the key is independent of domain and
/// thread scheduling.
std::uint64_t hop_sample_key(std::uint64_t from_prefix,
                             std::uint64_t to_prefix, double send_time);

}  // namespace emergence::obs
