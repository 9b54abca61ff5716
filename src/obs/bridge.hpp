// Publishes the repository's hot-path stats structs onto a MetricsRegistry.
//
// The four ad-hoc accumulators (dht::TransportStats, dht::LookupStats,
// service::WireStats, workload::FleetTally — plus service::DaemonReport)
// stay exactly what they are: small lock-free structs the hot paths bump
// and the barriers merge, with their own pinned fingerprints. This bridge
// is the PORT of those structs onto the unified registry: one publish()
// overload per struct maps every field to a named series, so benches, the
// wire MetricsResponse and the prometheus dump all read one model instead
// of five shapes.
//
// Layering note: like bench/ and the workload scenario layer, this file
// sits ABOVE dht/service/workload (it includes their headers); obs/metrics
// and obs/trace themselves depend only on common/.
#pragma once

#include "dht/network.hpp"
#include "dht/transport.hpp"
#include "obs/metrics.hpp"
#include "service/daemon.hpp"
#include "service/wire.hpp"
#include "workload/session_fleet.hpp"

namespace emergence::obs {

/// Transport counters -> emergence_transport_* series.
void publish(MetricsRegistry& registry, const dht::TransportStats& stats,
             const Labels& labels = {});

/// Lookup counters -> emergence_lookup_* series.
void publish(MetricsRegistry& registry, const dht::LookupStats& stats,
             const Labels& labels = {});

/// Wire frame counters -> emergence_wire_* series.
void publish(MetricsRegistry& registry, const service::WireStats& stats,
             const Labels& labels = {});

/// Daemon engine counters -> emergence_daemon_* series.
void publish(MetricsRegistry& registry, const service::DaemonReport& report,
             const Labels& labels = {});

/// Fleet outcomes -> emergence_fleet_* series (includes the tally's
/// delivery-latency histogram and its embedded TransportStats and
/// LookupStats).
void publish(MetricsRegistry& registry, const workload::FleetTally& tally,
             const Labels& labels = {});

}  // namespace emergence::obs
