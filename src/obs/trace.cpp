#include "obs/trace.hpp"

#include <algorithm>
#include <bit>

#include "common/fingerprint.hpp"
#include "common/rng.hpp"

namespace emergence::obs {

namespace {

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << c;
    }
  }
  os << '"';
}

/// One event as a Chrome trace_event "complete" record. Instants are
/// zero-duration complete events — Perfetto renders both on the `id`
/// track. Also the JSONL line format, so one writer serves both sinks.
void write_event(std::ostream& os, const TraceEvent& e) {
  os << "{\"name\": ";
  json_string(os, e.name);
  os << ", \"cat\": ";
  json_string(os, e.cat);
  os << ", \"ph\": \"X\", \"ts\": " << e.ts_us << ", \"dur\": " << e.dur_us
     << ", \"pid\": 1, \"tid\": " << e.id;
  if (!e.args.empty()) {
    os << ", \"args\": {";
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      if (i > 0) os << ", ";
      json_string(os, e.args[i].first);
      os << ": ";
      json_string(os, e.args[i].second);
    }
    os << "}";
  }
  os << "}";
}

}  // namespace

bool TraceShard::sample(std::uint64_t key) const { return owner_->sample(key); }

TraceShard* Tracer::new_shard() {
  std::lock_guard<std::mutex> lock(shards_mutex_);
  shards_.push_back(std::unique_ptr<TraceShard>(new TraceShard(this)));
  return shards_.back().get();
}

bool Tracer::sample(std::uint64_t key) const {
  if (rate_ >= 1.0) return true;
  if (rate_ <= 0.0) return false;
  // fork(key) is a pure function of (seed_, key): the decision depends on
  // content only, never on shard state or call order.
  return Rng(seed_).fork(key).real() < rate_;
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(shards_mutex_);
  std::size_t count = 0;
  for (const auto& shard : shards_) count += shard->events().size();
  return count;
}

std::vector<TraceEvent> Tracer::sorted_events() const {
  std::vector<TraceEvent> all;
  {
    std::lock_guard<std::mutex> lock(shards_mutex_);
    for (const auto& shard : shards_) {
      all.insert(all.end(), shard->events().begin(), shard->events().end());
    }
  }
  // stable_sort on the full content tuple: the output order is a pure
  // function of the event multiset, so any sharding of the same events
  // exports identical bytes.
  std::stable_sort(all.begin(), all.end());
  return all;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  const std::vector<TraceEvent> events = sorted_events();
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    os << (i > 0 ? ",\n  " : "\n  ");
    write_event(os, events[i]);
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

void Tracer::drain_jsonl(std::ostream& os) {
  std::lock_guard<std::mutex> lock(shards_mutex_);
  for (const auto& shard : shards_) {
    for (const TraceEvent& e : shard->events()) {
      write_event(os, e);
      os << "\n";
    }
    shard->events_.clear();
  }
}

std::uint64_t hop_sample_key(std::uint64_t from_prefix,
                             std::uint64_t to_prefix, double send_time) {
  Fingerprint fp;
  fp.mix(from_prefix);
  fp.mix(to_prefix);
  fp.mix(std::bit_cast<std::uint64_t>(send_time));
  return fp.value();
}

}  // namespace emergence::obs
