/// \file
/// The one netsim deployment description, the one builder that turns it
/// into a NetSimConfig, and the study renderers over it.
///
/// Every netsim study is a GenericSpec.  A named study (lifetime,
/// throughput, clustered, heterogeneous, faults) is three things:
///
///   * its defaults — the `*Defaults()` functions below;
///   * its accepted-key subset of the generic spec schema — the study
///     table in scenario/spec.cpp;
///   * its renderer — `Run*Study(ctx, spec)`, which builds the config
///     with BuildNetSimConfig, applies only its own documented
///     adjustments and renders its own tables.
///
/// Two front ends start from the same defaults and call the same
/// renderer: the registry flag wrappers (`wsnctl run netsim-lifetime
/// ...`, scenarios_netsim.cpp / scenarios_cluster.cpp /
/// scenarios_faults.cpp) and the spec parser (`wsnctl run --file
/// exp.json`, scenario/spec.hpp).  A committed preset is therefore
/// byte-identical to its registry twin — the property
/// tests/test_scenario.cpp pins.  Callers validate their own input
/// surface (CLI flags or spec paths) before calling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "netsim/netsim.hpp"
#include "netsim/replication.hpp"
#include "scenario/scenario.hpp"
#include "util/statistics.hpp"

namespace wsn::scenario {

// ------------------------------------------------------------- the spec

/// One sweep axis: the spec path of a sweepable knob and the values the
/// sweep grid takes.
struct SweepAxis {
  std::string key;             ///< e.g. "node.rate" (see docs/scenarios.md)
  std::vector<double> values;  ///< >= 1 entries, each range-checked
};

/// Cluster-protocol knobs of a clustered deployment.
struct ClusterKnobs {
  netsim::ClusterProtocolKind protocol =
      netsim::ClusterProtocolKind::kLeach;  ///< leach or static
  double head_fraction = 0.1;   ///< desired cluster-head fraction (0, 1]
  std::size_t static_heads = 0; ///< static head count (0 = derive)
  double round_s = 25.0;        ///< cluster round length (s)
  std::size_t aggregation = 4;  ///< member samples per upstream packet
};

/// The netsim deployment description: the full knob surface of a spec,
/// with the `generic` study's defaults in the member initializers.
struct GenericSpec {
  // topology — either a cols x rows grid or a near-square `nodes` grid.
  std::size_t cols = 6;
  std::size_t rows = 6;
  std::size_t nodes = 0;  ///< > 0: near-square grid of exactly n nodes
  double spacing_m = 15.0;
  double hop_m = 40.0;
  std::size_t sinks = 1;  ///< 1..4, extra sinks at deployment corners

  // node hardware (Msp430 CPU, 1024-bit samples, 1% listen duty cycle)
  double rate_hz = 1.0;
  double battery_mah = 0.05;

  // traffic
  bool bursty = false;  ///< MMPP quiet/storm instead of steady Poisson

  // mac
  double p_loss = 0.0;
  double wakeup_interval_s = 0.0;
  std::size_t max_retries = 3;
  std::size_t max_queue = 1024;

  // routing (flat mode)
  netsim::RoutingUpdateMode routing_update =
      netsim::RoutingUpdateMode::kIncremental;
  bool rerouting = true;

  // cluster — enabled by the presence of the `cluster` section.
  bool clustered = false;
  ClusterKnobs cluster;
  netsim::HeadAssignMode assign = netsim::HeadAssignMode::kGrid;

  // classes — two-class deployment when advanced_fraction > 0.
  double advanced_fraction = 0.0;
  double battery_factor = 1.0;
  std::string placement = "hotspot";  ///< "hotspot" or "spread"

  // faults (scalars; 0 disables each class)
  double crash_rate_hz = 0.0;
  double outage_s = 0.0;
  std::size_t jam_windows = 0;
  double jam_radius_m = 45.0;
  double jam_duration_s = 0.0;  ///< 0 = horizon_s / 10
  double jam_p_loss = 0.5;
  std::size_t sink_outages = 0;
  double sink_outage_s = 0.0;  ///< 0 = horizon_s / 10

  // run
  double horizon_s = 1000.0;
  std::string stop_at = "horizon";  ///< "horizon" | "first_death" | "partition"
  std::size_t replications = 4;
  std::uint64_t seed = 2008;

  // sweep / output / verify
  std::vector<SweepAxis> sweep;  ///< <= 3 axes, <= 64 cells total
  std::vector<std::string> columns{"generated",      "delivered",
                                   "dropped",        "delivery_ratio",
                                   "first_death_s",  "conserved"};
  bool verify_oracle = false;
  bool verify_analytic = false;
};

/// The NetSimConfig a spec describes: Msp430 CPU serving at
/// 10 * max(rate, 0.1), 1024-bit samples, 1% listen duty cycle, corner
/// sinks, MMPP storm traffic when bursty, the two-class placement and
/// the fault knobs (a 0 jam/sink-outage length means horizon / 10).
/// Sweep axes are not applied; see ExpandCells.
netsim::NetSimConfig BuildNetSimConfig(const GenericSpec& g);

/// The values of `g`'s sweep axis `key`; throws util::Error when `g`
/// has no such axis.
std::vector<double>& SweepValues(GenericSpec& g, const std::string& key);

/// One expanded sweep cell: the spec with one value of every axis
/// applied, labelled "key=value key=value" ("base" without axes).
struct SpecCell {
  GenericSpec spec;
  std::string label;
};

/// The sweep grid of `g`, first axis outermost.
std::vector<SpecCell> ExpandCells(const GenericSpec& g);

// ------------------------------------------------------------- helpers

/// Standard lifetime metric rows (first death, partition, delivery
/// ratio, samples delivered) labelled with `label`.
void AddLifetimeRows(ResultTable& table, const std::string& label,
                     const netsim::ReplicationSummary& summary);

/// Mean of a per-report extractor over all replications.
template <typename Fn>
double MeanOverReports(const netsim::ReplicationSummary& summary, Fn&& fn) {
  util::RunningStats stats;
  for (const netsim::NetSimReport& report : summary.reports) {
    stats.Add(fn(report));
  }
  return stats.Mean();
}

/// Field-for-field comparison of one replication against its oracle
/// twin.  Every quantity compared is deterministic per (seed,
/// replication), so any mismatch is a real divergence between the
/// incremental repair paths and their full-recompute oracle.  Throws
/// util::Error "`where` diverged from its oracle at replication N
/// (field)" on mismatch.
void RequireEqualReports(const netsim::NetSimReport& a,
                         const netsim::NetSimReport& b,
                         const std::string& where, std::size_t rep);

/// Packet-conservation hard check: throws util::Error "`where` violated
/// packet conservation at replication N: ..." naming all four counters
/// unless report.Conserved().
void RequireConserved(const netsim::NetSimReport& report,
                      const std::string& where, std::size_t rep);

// ------------------------------------------------------------- studies

/// netsim-lifetime: deaths, re-routing and partition under bursty
/// (MMPP quiet/storm) traffic on a 10 x 5 grid, stopping at partition.
/// Adds a timeline every horizon / 20.
GenericSpec LifetimeDefaults();
ResultSet RunLifetimeStudy(const ScenarioContext& ctx, const GenericSpec& g);

/// netsim-throughput: replications/second single-threaded vs fanned out
/// across the scenario executor.  Runs on a Pxa271 CPU with the default
/// battery; a clustered spec gets round = horizon / 5 and aggregation 4.
/// The wall-clock columns make this the one study whose output is NOT
/// deterministic.
GenericSpec ThroughputDefaults();
ResultSet RunThroughputStudy(const ScenarioContext& ctx, const GenericSpec& g);

/// netsim-clustered: LEACH-style (or static) clustered collection —
/// head rotation, in-cluster aggregation, multi-sink uplink.
GenericSpec ClusteredDefaults();
ResultSet RunClusteredStudy(const ScenarioContext& ctx, const GenericSpec& g);

/// netsim-heterogeneous: a two-class (SEP-style) deployment run next to
/// its homogeneous twin and cross-validated against the analytic
/// heterogeneous estimator.
GenericSpec HeterogeneousDefaults();
ResultSet RunHeterogeneousStudy(const ScenarioContext& ctx,
                                const GenericSpec& g);

/// netsim-faults: a crash-rate x outage-length chaos sweep (the spec's
/// two sweep axes), each cell run flat and clustered, every replication
/// differentially verified against its full-recompute oracle twin and
/// the packet-conservation invariant.
GenericSpec FaultDefaults();
ResultSet RunFaultStudy(const ScenarioContext& ctx, const GenericSpec& g);

/// generic: the sweep grid of `g`, every cell conservation-checked, with
/// the spec's output columns and optional oracle / analytic checks.
ResultSet RunGenericStudy(const ScenarioContext& ctx, const GenericSpec& g);

}  // namespace wsn::scenario
