#include "obs/bridge.hpp"

#include <algorithm>

namespace emergence::obs {

void publish(MetricsRegistry& r, const dht::TransportStats& stats,
             const Labels& labels) {
  r.counter("emergence_transport_messages_total", labels) += stats.messages;
  r.counter("emergence_transport_attempts_total", labels) += stats.attempts;
  r.counter("emergence_transport_dropped_total", labels) += stats.dropped;
  r.counter("emergence_transport_retried_total", labels) += stats.retried;
  r.counter("emergence_transport_timed_out_total", labels) += stats.timed_out;
  r.histogram("emergence_transport_hop_latency_us", labels)
      .merge(stats.hop_latency_us);
}

void publish(MetricsRegistry& r, const dht::LookupStats& stats,
             const Labels& labels) {
  r.counter("emergence_lookup_lookups_total", labels) += stats.lookups;
  r.counter("emergence_lookup_hops_total", labels) += stats.total_hops;
  r.counter("emergence_lookup_failures_total", labels) += stats.failures;
}

void publish(MetricsRegistry& r, const service::WireStats& stats,
             const Labels& labels) {
  r.counter("emergence_wire_frames_sent_total", labels) += stats.frames_sent;
  r.counter("emergence_wire_frames_received_total", labels) +=
      stats.frames_received;
  r.counter("emergence_wire_bad_magic_total", labels) += stats.bad_magic;
  r.counter("emergence_wire_version_mismatch_total", labels) +=
      stats.version_mismatch;
  r.counter("emergence_wire_truncated_frames_total", labels) +=
      stats.truncated_frames;
  r.counter("emergence_wire_oversized_frames_total", labels) +=
      stats.oversized_frames;
  r.counter("emergence_wire_unknown_type_total", labels) += stats.unknown_type;
  r.counter("emergence_wire_malformed_payload_total", labels) +=
      stats.malformed_payload;
  r.counter("emergence_wire_hops_exhausted_total", labels) +=
      stats.hops_exhausted;
  r.counter("emergence_wire_request_timeouts_total", labels) +=
      stats.request_timeouts;
  r.counter("emergence_wire_request_retries_total", labels) +=
      stats.request_retries;
}

void publish(MetricsRegistry& r, const service::DaemonReport& report,
             const Labels& labels) {
  r.counter("emergence_daemon_packages_sent_total", labels) +=
      report.packages_sent;
  r.counter("emergence_daemon_packages_received_total", labels) +=
      report.packages_received;
  r.counter("emergence_daemon_holders_stuck_total", labels) +=
      report.holders_stuck;
  r.counter("emergence_daemon_deliveries_total", labels) += report.deliveries;
  r.counter("emergence_daemon_submits_accepted_total", labels) +=
      report.submits_accepted;
  r.counter("emergence_daemon_submits_rejected_total", labels) +=
      report.submits_rejected;
  r.counter("emergence_daemon_keys_put_total", labels) += report.keys_put;
  r.counter("emergence_daemon_put_failures_total", labels) +=
      report.put_failures;
  r.counter("emergence_daemon_packages_expired_total", labels) +=
      report.packages_expired;
}

void publish(MetricsRegistry& r, const workload::FleetTally& tally,
             const Labels& labels) {
  r.counter("emergence_fleet_sessions_started_total", labels) +=
      tally.sessions_started;
  r.counter("emergence_fleet_sessions_delivered_total", labels) +=
      tally.sessions_delivered;
  r.counter("emergence_fleet_delivered_on_time_total", labels) +=
      tally.delivered_on_time;
  r.counter("emergence_fleet_releases_total", labels) +=
      tally.tally.release.successes();
  r.counter("emergence_fleet_drops_total", labels) +=
      tally.tally.drop.successes();
  r.counter("emergence_fleet_payload_mismatches_total", labels) +=
      tally.payload_mismatches;
  r.counter("emergence_fleet_packages_sent_total", labels) +=
      tally.packages_sent;
  r.counter("emergence_fleet_packages_delivered_total", labels) +=
      tally.packages_delivered;
  r.counter("emergence_fleet_packages_dropped_malicious_total", labels) +=
      tally.packages_dropped_malicious;
  r.counter("emergence_fleet_holders_stuck_total", labels) +=
      tally.holders_stuck;
  r.counter("emergence_fleet_key_assignments_total", labels) +=
      tally.key_assignments;
  r.counter("emergence_fleet_deliveries_total", labels) += tally.deliveries;
  r.counter("emergence_fleet_churn_deaths_total", labels) += tally.churn_deaths;
  r.counter("emergence_fleet_churn_transients_total", labels) +=
      tally.churn_transients;
  r.counter("emergence_fleet_churn_replacements_total", labels) +=
      tally.churn_replacements;
  r.counter("emergence_fleet_stray_packages_total", labels) +=
      tally.stray_packages;
  r.counter("emergence_fleet_arena_slots_total", labels) += tally.arena_slots;
  r.counter("emergence_fleet_events_executed_total", labels) +=
      tally.events_executed;
  r.counter("emergence_fleet_worlds_total", labels) += tally.worlds;
  auto& peak = r.gauge("emergence_fleet_peak_live_sessions", labels);
  peak = std::max(peak, static_cast<double>(tally.peak_live_sessions));
  auto& horizon = r.gauge("emergence_fleet_horizon_seconds", labels);
  horizon = std::max(horizon, tally.horizon);
  r.histogram("emergence_fleet_delivery_latency_us", labels)
      .merge(tally.latency_us);
  publish(r, tally.transport, labels);
  publish(r, tally.lookups, labels);
}

}  // namespace emergence::obs
