#include "scenario/studies.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

#include "core/models.hpp"
#include "des/bursty_workload.hpp"
#include "scenario/common.hpp"
#include "scenario/harness.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "wsn/network.hpp"

namespace wsn::scenario {

namespace {

/// Replication effort of a spec.
netsim::ReplicationConfig RepConfig(const GenericSpec& g) {
  netsim::ReplicationConfig rep;
  rep.replications = g.replications;
  rep.seed = g.seed;
  return rep;
}

/// The full-recompute oracle twin of `cfg` on identical streams: full
/// routing recompute (flat) or all-pairs head assignment (clustered).
/// Contributes no observability output — it exists only to be compared
/// against.
netsim::NetSimConfig OracleTwin(const netsim::NetSimConfig& cfg) {
  netsim::NetSimConfig oracle = cfg;
  oracle.obs = obs::ObsConfig{};
  if (oracle.cluster.protocol == netsim::ClusterProtocolKind::kNone) {
    oracle.routing_update = netsim::RoutingUpdateMode::kFull;
  } else {
    oracle.cluster.assign = netsim::HeadAssignMode::kAllPairs;
  }
  return oracle;
}

void ApplyAxis(GenericSpec& g, const std::string& key, double v) {
  if (key == "node.rate") {
    g.rate_hz = v;
  } else if (key == "node.battery_mah") {
    g.battery_mah = v;
  } else if (key == "topology.hop") {
    g.hop_m = v;
  } else if (key == "topology.spacing") {
    g.spacing_m = v;
  } else if (key == "faults.crash_rate") {
    g.crash_rate_hz = v;
  } else if (key == "faults.outage_s") {
    g.outage_s = v;
  } else if (key == "cluster.head_fraction") {
    g.cluster.head_fraction = v;
  } else if (key == "cluster.round_s") {
    g.cluster.round_s = v;
  } else if (key == "mac.p_loss") {
    g.p_loss = v;
  } else if (key == "run.horizon_s") {
    g.horizon_s = v;
  }
}

}  // namespace

netsim::NetSimConfig BuildNetSimConfig(const GenericSpec& g) {
  netsim::NetSimConfig cfg;
  cfg.network.node.cpu.arrival_rate = g.rate_hz;
  cfg.network.node.cpu.service_rate = 10.0 * std::max(g.rate_hz, 0.1);
  cfg.network.node.cpu_power = energy::Msp430();
  cfg.network.node.sample_bits = 1024;
  cfg.network.node.listen_duty_cycle = 0.01;
  cfg.network.node.battery_mah = g.battery_mah;
  cfg.network.sink = {0.0, 0.0};
  cfg.network.max_hop_m = g.hop_m;
  cfg.horizon_s = g.horizon_s;

  // A `nodes` deployment is the near-square grid trimmed to n nodes.
  std::size_t cols = g.cols;
  std::size_t rows = g.rows;
  if (g.nodes > 0) {
    cols = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(g.nodes))));
    rows = (g.nodes + cols - 1) / cols;
  }
  cfg.positions = node::MakeGrid(cols, rows, g.spacing_m);
  if (g.nodes > 0) cfg.positions.resize(g.nodes);

  // Extra sinks at the deployment corners (the default single sink sits
  // at the origin corner).
  const double x_max = (static_cast<double>(cols) + 1.0) * g.spacing_m;
  const double y_max = (static_cast<double>(rows) + 1.0) * g.spacing_m;
  if (g.sinks >= 2) cfg.sinks = {{0.0, 0.0}, {x_max, y_max}};
  if (g.sinks >= 3) cfg.sinks.push_back({x_max, 0.0});
  if (g.sinks >= 4) cfg.sinks.push_back({0.0, y_max});

  cfg.mac.p_loss = g.p_loss;
  cfg.mac.wakeup_interval_s = g.wakeup_interval_s;
  cfg.mac.max_retries = g.max_retries;
  cfg.mac.max_queue = g.max_queue;

  cfg.routing_update = g.routing_update;
  cfg.rerouting = g.rerouting;
  cfg.stop_at_first_death = g.stop_at == "first_death";
  cfg.stop_at_partition = g.stop_at == "partition";

  if (g.clustered) {
    cfg.cluster.protocol = g.cluster.protocol;
    cfg.cluster.head_fraction = g.cluster.head_fraction;
    cfg.cluster.static_heads = g.cluster.static_heads;
    cfg.cluster.round_s = g.cluster.round_s;
    cfg.cluster.aggregation = g.cluster.aggregation;
    cfg.cluster.assign = g.assign;
  }

  if (g.bursty) {
    // Event-storm traffic: mostly quiet at 20% of the nominal rate, with
    // occasional bursts at 10x (long-run mean close to the nominal rate).
    const double rate = g.rate_hz;
    cfg.traffic_factory = [rate](std::size_t) {
      return std::make_unique<des::MmppWorkload>(
          std::vector<double>{0.2 * rate, 10.0 * rate},
          std::vector<std::vector<double>>{{-0.02, 0.02}, {0.2, -0.2}});
    };
  }

  // Each fault class stays inert while its rate or count is 0.
  cfg.faults.crash_rate_hz = g.crash_rate_hz;
  cfg.faults.mean_outage_s = g.outage_s;
  cfg.faults.jam_windows = g.jam_windows;
  cfg.faults.jam_radius_m = g.jam_radius_m;
  cfg.faults.jam_duration_s =
      g.jam_duration_s > 0.0 ? g.jam_duration_s : g.horizon_s / 10.0;
  cfg.faults.jam_p_loss = g.jam_p_loss;
  cfg.faults.sink_outages = g.sink_outages;
  cfg.faults.sink_outage_s =
      g.sink_outage_s > 0.0 ? g.sink_outage_s : g.horizon_s / 10.0;

  if (g.advanced_fraction > 0.0) {
    // Named hardware profiles: "advanced" nodes carry battery_factor
    // times the standard battery.
    netsim::NodeClass standard;
    standard.name = "standard";
    standard.battery_mah = cfg.network.node.battery_mah;
    standard.battery_volts = cfg.network.node.battery_volts;
    standard.radio = cfg.network.node.radio;
    standard.listen_duty_cycle = cfg.network.node.listen_duty_cycle;
    netsim::NodeClass advanced = standard;
    advanced.name = "advanced";
    advanced.battery_mah = standard.battery_mah * g.battery_factor;
    cfg.classes = {standard, advanced};

    const std::size_t n = cfg.positions.size();
    const std::size_t advanced_count = static_cast<std::size_t>(
        std::lround(g.advanced_fraction * static_cast<double>(n)));
    cfg.node_class.assign(n, "standard");
    if (advanced_count > 0 && g.placement == "hotspot") {
      // Give the big batteries to the nodes the analytic estimator says
      // carry the most relay traffic — the hot path near the sink.
      const core::MarkovCpuModel model;
      const node::Network analytic_net(cfg.network, cfg.positions);
      const node::NetworkReport report = analytic_net.Evaluate(model);
      std::vector<std::size_t> order(n);
      for (std::size_t i = 0; i < n; ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  const double la = report.nodes[a].relay_packets_per_second;
                  const double lb = report.nodes[b].relay_packets_per_second;
                  if (la != lb) return la > lb;
                  return a < b;
                });
      for (std::size_t j = 0; j < advanced_count; ++j) {
        cfg.node_class[order[j]] = "advanced";
      }
    } else if (advanced_count > 0) {
      // spread: evenly strided across the index order, blind to load.
      for (std::size_t j = 0; j < advanced_count; ++j) {
        const std::size_t pick = (j * n + n / 2) / advanced_count;
        cfg.node_class[std::min(pick, n - 1)] = "advanced";
      }
    }
  }
  return cfg;
}

std::vector<double>& SweepValues(GenericSpec& g, const std::string& key) {
  for (SweepAxis& axis : g.sweep) {
    if (axis.key == key) return axis.values;
  }
  throw util::Error("spec has no sweep axis '" + key + "'");
}

std::vector<SpecCell> ExpandCells(const GenericSpec& g) {
  std::vector<SpecCell> cells{{g, ""}};
  for (const SweepAxis& axis : g.sweep) {
    std::vector<SpecCell> next;
    next.reserve(cells.size() * axis.values.size());
    for (const SpecCell& cell : cells) {
      for (const double v : axis.values) {
        SpecCell expanded = cell;
        ApplyAxis(expanded.spec, axis.key, v);
        if (!expanded.label.empty()) expanded.label += " ";
        expanded.label += axis.key + "=" + CompactNumber(v);
        next.push_back(std::move(expanded));
      }
    }
    cells = std::move(next);
  }
  for (SpecCell& cell : cells) {
    if (cell.label.empty()) cell.label = "base";
  }
  return cells;
}

void AddLifetimeRows(ResultTable& table, const std::string& label,
                     const netsim::ReplicationSummary& summary) {
  table.AddRow({label, "time to first death (s)",
                MetricCell(summary.first_death_s, 1),
                ObservedCell(summary.first_death_s.observed,
                             summary.replications)});
  table.AddRow({label, "time to partition (s)",
                MetricCell(summary.partition_s, 1),
                ObservedCell(summary.partition_s.observed,
                             summary.replications)});
  table.AddRow({label, "delivery ratio", MetricCell(summary.delivery_ratio, 4),
                ObservedCell(summary.replications, summary.replications)});
  table.AddRow({label, "samples delivered", MetricCell(summary.delivered, 1),
                ObservedCell(summary.replications, summary.replications)});
}

void RequireEqualReports(const netsim::NetSimReport& a,
                         const netsim::NetSimReport& b,
                         const std::string& where, std::size_t rep) {
  const auto fail = [&](const char* what) {
    throw util::Error(where + " diverged from its oracle at replication " +
                      std::to_string(rep) + " (" + what + ")");
  };
  if (a.events != b.events) fail("DES events");
  if (a.packets.generated != b.packets.generated) fail("generated");
  if (a.packets.delivered != b.packets.delivered) fail("delivered");
  if (a.packets.forwarded != b.packets.forwarded) fail("forwarded");
  if (a.packets.retransmissions != b.packets.retransmissions) {
    fail("retransmissions");
  }
  if (a.packets.dropped != b.packets.dropped) fail("drops by reason");
  if (a.crashes != b.crashes) fail("crashes");
  if (a.recoveries != b.recoveries) fail("recoveries");
  if (a.first_death_s != b.first_death_s) fail("first death");
  if (a.partition_s != b.partition_s) fail("partition instant");
  if (a.heal_s != b.heal_s) fail("heal instant");
  if (a.in_flight != b.in_flight) fail("in-flight payloads");
  if (a.end_s != b.end_s) fail("end instant");
}

void RequireConserved(const netsim::NetSimReport& report,
                      const std::string& where, std::size_t rep) {
  if (report.Conserved()) return;
  throw util::Error(
      where + " violated packet conservation at replication " +
      std::to_string(rep) + ": generated " +
      std::to_string(report.packets.generated) + " != delivered " +
      std::to_string(report.packets.delivered) + " + dropped " +
      std::to_string(report.packets.TotalDropped()) + " + in flight " +
      std::to_string(report.in_flight));
}

// ------------------------------------------------------------------------
// netsim-lifetime

GenericSpec LifetimeDefaults() {
  GenericSpec g;
  g.cols = 10;
  g.rows = 5;
  g.rate_hz = 2.0;
  g.bursty = true;
  g.horizon_s = 4000.0;
  g.stop_at = "partition";  // measure the connected phase
  g.replications = 8;
  return g;
}

ResultSet RunLifetimeStudy(const ScenarioContext& ctx, const GenericSpec& g) {
  netsim::NetSimConfig cfg = BuildNetSimConfig(g);
  cfg.timeline_interval_s = cfg.horizon_s / 20.0;

  netsim::ReplicationConfig rep = RepConfig(g);
  rep.keep_reports = true;
  ApplyObs(ctx, cfg);

  const core::MarkovCpuModel model;
  const netsim::ReplicationSummary summary =
      RunReplications(cfg, model, rep, ctx.Executor());
  ContributeObs(ctx, summary);

  ResultSet results("netsim lifetime study: deaths, re-routing, partition");
  results.SetMeta("nodes", std::to_string(cfg.positions.size()));
  results.SetMeta("traffic", g.bursty ? "bursty MMPP" : "steady Poisson");
  results.SetMeta("replications", std::to_string(rep.replications));
  results.SetMeta("horizon", util::FormatFixed(cfg.horizon_s, 0) + " s");
  results.SetMeta("seed", std::to_string(rep.seed));

  ResultTable& lifetimes = results.AddTable(
      "summary", {"metric", "mean +- 95% CI", "observed in"});
  lifetimes.AddRow({"time to first death (s)",
                    MetricCell(summary.first_death_s, 1),
                    ObservedCell(summary.first_death_s.observed,
                                 summary.replications)});
  lifetimes.AddRow({"time to partition (s)",
                    MetricCell(summary.partition_s, 1),
                    ObservedCell(summary.partition_s.observed,
                                 summary.replications)});
  lifetimes.AddRow({"delivery ratio", MetricCell(summary.delivery_ratio, 4),
                    ObservedCell(summary.replications, summary.replications)});
  lifetimes.AddRow({"packets delivered", MetricCell(summary.delivered, 1),
                    ObservedCell(summary.replications, summary.replications)});

  // Zoom into replication 0: the hot path near the sink dies first.
  const netsim::NetSimReport& rep0 = summary.reports.front();
  ResultTable& nodes = results.AddTable(
      "replication-0-nodes", {"node", "pos", "generated", "forwarded",
                              "dropped", "energy (J)", "death (s)"});
  std::size_t shown = 0;
  for (std::size_t i = 0; i < rep0.nodes.size() && shown < 10; ++i) {
    const netsim::NodeSimStats& n = rep0.nodes[i];
    if (n.alive && shown >= 5) continue;  // highlight the casualties
    ++shown;
    nodes.AddRow({std::to_string(i),
                  "(" + util::FormatFixed(cfg.positions[i].x, 0) + "," +
                      util::FormatFixed(cfg.positions[i].y, 0) + ")",
                  std::to_string(n.generated), std::to_string(n.forwarded),
                  std::to_string(n.dropped),
                  util::FormatFixed(n.energy_used_j, 3),
                  std::isfinite(n.death_s) ? util::FormatFixed(n.death_s, 1)
                                           : std::string("alive")});
  }

  ResultTable& drops =
      results.AddTable("replication-0-drops", {"drop reason", "packets"});
  for (std::size_t r = 0; r < netsim::kDropReasonCount; ++r) {
    const auto reason = static_cast<netsim::DropReason>(r);
    drops.AddRow({netsim::DropReasonName(reason),
                  std::to_string(rep0.packets.Dropped(reason))});
  }

  results.AddNote(
      "replication 0: generated " + std::to_string(rep0.packets.generated) +
      ", delivered " + std::to_string(rep0.packets.delivered) +
      ", first death " +
      (std::isfinite(rep0.first_death_s)
           ? "at " + util::FormatFixed(rep0.first_death_s, 1) + " s (node " +
                 std::to_string(rep0.first_dead_node) + ")"
           : std::string("never")) +
      ", partition " +
      (std::isfinite(rep0.partition_s)
           ? "at " + util::FormatFixed(rep0.partition_s, 1) + " s"
           : std::string("never")) +
      ", " + std::to_string(rep0.events) + " events");
  return results;
}

// ------------------------------------------------------------------------
// netsim-throughput

GenericSpec ThroughputDefaults() {
  GenericSpec g;
  g.cols = 10;
  g.rows = 10;
  g.spacing_m = 25.0;
  g.rate_hz = 2.0;
  g.battery_mah = node::NodeConfig{}.battery_mah;
  g.horizon_s = 30.0;
  g.replications = 32;
  return g;
}

ResultSet RunThroughputStudy(const ScenarioContext& ctx,
                             const GenericSpec& g) {
  netsim::NetSimConfig cfg = BuildNetSimConfig(g);
  cfg.network.node.cpu_power = energy::Pxa271();
  // Clustered mode benchmarks the LEACH data path (elections,
  // aggregation) instead of flat greedy multi-hop.
  if (g.clustered) {
    cfg.cluster.round_s = cfg.horizon_s / 5.0;
    cfg.cluster.aggregation = 4;
  }

  const netsim::ReplicationConfig rep = RepConfig(g);
  const core::MarkovCpuModel model;

  ResultSet results("netsim replication throughput: serial vs executor");
  results.SetMeta("routing",
                  g.clustered ? "clustered (leach)" : "flat greedy");
  results.SetMeta("nodes", std::to_string(cfg.positions.size()));
  results.SetMeta("horizon", util::FormatFixed(cfg.horizon_s, 0) + " s");
  results.SetMeta("replications", std::to_string(rep.replications));
  results.SetMeta("hardware-threads",
                  std::to_string(std::thread::hardware_concurrency()));

  const auto timed = [&](util::ParallelExecutor& executor) {
    const auto start = std::chrono::steady_clock::now();
    const netsim::ReplicationSummary summary =
        RunReplications(cfg, model, rep, executor);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return std::make_pair(summary, wall);
  };

  util::ParallelExecutor serial_exec(1);
  const auto [serial, serial_s] = timed(serial_exec);
  // Observe only the executor leg: contributing both legs would double
  // every counter for what is conceptually one benchmarked workload.
  ApplyObs(ctx, cfg);
  const auto [parallel, parallel_s] = timed(ctx.Executor());
  ContributeObs(ctx, parallel);

  const double reps = static_cast<double>(rep.replications);
  ResultTable& table = results.AddTable(
      "throughput", {"mode", "threads", "wall (s)", "replications/s",
                     "speedup"});
  table.AddRow({"serial", "1", util::FormatFixed(serial_s, 3),
                util::FormatFixed(reps / serial_s, 2), "1.00"});
  table.AddRow({"executor", std::to_string(ctx.Executor().ThreadCount()),
                util::FormatFixed(parallel_s, 3),
                util::FormatFixed(reps / parallel_s, 2),
                util::FormatFixed(serial_s / parallel_s, 2)});

  results.AddNote("checks: delivery ratio " +
                  util::FormatInterval(serial.delivery_ratio.ci.mean,
                                       serial.delivery_ratio.ci.half_width,
                                       4) +
                  " (serial) vs " +
                  util::FormatInterval(parallel.delivery_ratio.ci.mean,
                                       parallel.delivery_ratio.ci.half_width,
                                       4) +
                  " (parallel) — identical streams, identical results");
  return results;
}

// ------------------------------------------------------------------------
// netsim-clustered

GenericSpec ClusteredDefaults() {
  GenericSpec g;
  g.rate_hz = 2.0;
  g.clustered = true;
  g.horizon_s = 2000.0;
  g.replications = 8;
  return g;
}

ResultSet RunClusteredStudy(const ScenarioContext& ctx, const GenericSpec& g) {
  netsim::NetSimConfig cfg = BuildNetSimConfig(g);

  netsim::ReplicationConfig rep = RepConfig(g);
  rep.keep_reports = true;  // the rotation/head tables read the reports
  ApplyObs(ctx, cfg);
  const core::MarkovCpuModel model;
  const netsim::ReplicationSummary summary =
      RunReplications(cfg, model, rep, ctx.Executor());
  ContributeObs(ctx, summary);

  ResultSet results(
      "clustered collection: rotating heads, aggregation, multi-sink");
  results.SetMeta("nodes", std::to_string(cfg.positions.size()));
  results.SetMeta("sinks",
                  std::to_string(netsim::EffectiveSinks(cfg).size()));
  results.SetMeta("protocol",
                  netsim::ClusterProtocolKindName(cfg.cluster.protocol));
  results.SetMeta("round", util::FormatFixed(cfg.cluster.round_s, 0) + " s");
  results.SetMeta("aggregation", std::to_string(cfg.cluster.aggregation));
  results.SetMeta("replications", std::to_string(rep.replications));
  results.SetMeta("seed", std::to_string(rep.seed));

  ResultTable& lifetimes = results.AddTable(
      "summary", {"protocol", "metric", "mean +- 95% CI", "observed in"});
  AddLifetimeRows(lifetimes,
                  netsim::ClusterProtocolKindName(cfg.cluster.protocol),
                  summary);
  ResultTable& rotation = results.AddTable(
      "rotation", {"metric", "mean over replications"});
  rotation.AddRow({"cluster rounds",
                   util::FormatFixed(
                       MeanOverReports(summary,
                                       [](const netsim::NetSimReport& r) {
                                         return static_cast<double>(r.rounds);
                                       }),
                       2)});
  rotation.AddRow(
      {"elections (rounds + repairs)",
       util::FormatFixed(
           MeanOverReports(summary,
                           [](const netsim::NetSimReport& r) {
                             return static_cast<double>(r.elections);
                           }),
           2)});
  rotation.AddRow(
      {"distinct nodes elected head",
       util::FormatFixed(
           MeanOverReports(
               summary,
               [](const netsim::NetSimReport& r) {
                 std::size_t distinct = 0;
                 for (const netsim::NodeSimStats& n : r.nodes) {
                   if (n.head_elections > 0) ++distinct;
                 }
                 return static_cast<double>(distinct);
               }),
           2)});

  // Zoom into replication 0: who served as head and what it cost them.
  const netsim::NetSimReport& rep0 = summary.reports.front();
  ResultTable& heads = results.AddTable(
      "replication-0-heads",
      {"node", "head elections", "samples aggregated", "energy (J)",
       "death (s)"});
  std::size_t shown = 0;
  for (std::size_t i = 0; i < rep0.nodes.size() && shown < 10; ++i) {
    const netsim::NodeSimStats& n = rep0.nodes[i];
    if (n.head_elections == 0) continue;
    ++shown;
    heads.AddRow({std::to_string(i), std::to_string(n.head_elections),
                  std::to_string(n.aggregated),
                  util::FormatFixed(n.energy_used_j, 3),
                  std::isfinite(n.death_s) ? util::FormatFixed(n.death_s, 1)
                                           : std::string("alive")});
  }

  ResultTable& drops =
      results.AddTable("replication-0-drops", {"drop reason", "samples"});
  for (std::size_t r = 0; r < netsim::kDropReasonCount; ++r) {
    const auto reason = static_cast<netsim::DropReason>(r);
    drops.AddRow({netsim::DropReasonName(reason),
                  std::to_string(rep0.packets.Dropped(reason))});
  }
  results.AddNote("replication 0: generated " +
                  std::to_string(rep0.packets.generated) + ", delivered " +
                  std::to_string(rep0.packets.delivered) + " samples over " +
                  std::to_string(rep0.rounds) + " rounds (" +
                  std::to_string(rep0.elections) + " elections), " +
                  std::to_string(rep0.events) + " events");
  return results;
}

// ------------------------------------------------------------------------
// netsim-heterogeneous

GenericSpec HeterogeneousDefaults() {
  GenericSpec g;
  g.rows = 4;
  g.rate_hz = 2.0;
  g.horizon_s = 2000.0;
  g.rerouting = false;
  g.stop_at = "first_death";
  g.advanced_fraction = 0.2;
  g.battery_factor = 3.0;
  g.replications = 16;
  return g;
}

ResultSet RunHeterogeneousStudy(const ScenarioContext& ctx,
                                const GenericSpec& g) {
  netsim::NetSimConfig cfg = BuildNetSimConfig(g);
  const std::size_t n = cfg.positions.size();
  const std::size_t advanced_count = static_cast<std::size_t>(
      std::count(cfg.node_class.begin(), cfg.node_class.end(), "advanced"));

  netsim::NetSimConfig homogeneous = cfg;
  homogeneous.classes.clear();
  homogeneous.node_class.clear();

  const core::MarkovCpuModel model;
  const netsim::ReplicationConfig rep = RepConfig(g);
  ApplyObs(ctx, cfg);
  ApplyObs(ctx, homogeneous);
  const netsim::ReplicationSummary hetero =
      RunReplications(cfg, model, rep, ctx.Executor());
  const netsim::ReplicationSummary homo =
      RunReplications(homogeneous, model, rep, ctx.Executor());
  ContributeObs(ctx, hetero);
  ContributeObs(ctx, homo);

  // Analytic cross-check on the identical topology and per-node hardware.
  const node::Network analytic_net(cfg.network, cfg.positions);
  const node::NetworkReport analytic_homo = analytic_net.Evaluate(model);
  const node::NetworkReport analytic_hetero =
      analytic_net.Evaluate(model, netsim::PerNodeConfigs(cfg));

  ResultSet results(
      "heterogeneous node classes: mixed batteries vs the analytic "
      "estimator");
  results.SetMeta("nodes", std::to_string(n));
  results.SetMeta("advanced nodes", std::to_string(advanced_count));
  results.SetMeta("placement", g.placement);
  results.SetMeta("battery factor", util::FormatFixed(g.battery_factor, 2));
  results.SetMeta("replications", std::to_string(rep.replications));
  results.SetMeta("seed", std::to_string(rep.seed));

  ResultTable& table = results.AddTable(
      "first-death",
      {"deployment", "simulated first death (s)", "analytic first death (s)",
       "relative error"});
  const auto row = [&](const std::string& label,
                       const netsim::ReplicationSummary& summary,
                       const node::NetworkReport& analytic) {
    // No observed death before the horizon means there is nothing to
    // compare against the analytic lifetime.
    std::string error_cell = "n/a";
    if (summary.first_death_s.observed > 0) {
      const double mean = summary.first_death_s.ci.mean;
      const double rel = std::abs(mean - analytic.network_lifetime_seconds) /
                         analytic.network_lifetime_seconds;
      error_cell = util::FormatFixed(100.0 * rel, 2) + " %";
    }
    table.AddRow({label, MetricCell(summary.first_death_s, 1),
                  util::FormatFixed(analytic.network_lifetime_seconds, 1),
                  error_cell});
  };
  row("homogeneous (all standard)", homo, analytic_homo);
  row("heterogeneous (" + std::to_string(advanced_count) + " advanced)",
      hetero, analytic_hetero);

  ResultTable& verdict = results.AddTable(
      "lifetime-gain", {"metric", "value"});
  const bool both_died = hetero.first_death_s.observed > 0 &&
                         homo.first_death_s.observed > 0;
  verdict.AddRow(
      {"first-death gain (hetero / homo)",
       both_died ? util::FormatFixed(hetero.first_death_s.ci.mean /
                                         homo.first_death_s.ci.mean,
                                     3)
                 : std::string("n/a")});
  verdict.AddRow({"analytic bottleneck node (hetero)",
                  std::to_string(analytic_hetero.bottleneck_node)});
  results.AddNote(
      "rerouting is disabled and traffic is steady Poisson, so the "
      "simulated first death is directly comparable to the analytic "
      "per-node estimate — the heterogeneous counterpart of the "
      "test_netsim convergence anchor (the first death is a minimum over "
      "nodes, so with several near-tied lifetimes the simulated mean sits "
      "slightly below the analytic value)");
  return results;
}

// ------------------------------------------------------------------------
// netsim-faults

GenericSpec FaultDefaults() {
  GenericSpec g;
  g.nodes = 144;
  g.rate_hz = 0.05;
  g.battery_mah = node::NodeConfig{}.battery_mah;
  g.jam_windows = 2;
  g.sink_outages = 1;
  g.horizon_s = 2000.0;
  g.sweep = {{"faults.crash_rate", {0.0002, 0.001}},
             {"faults.outage_s", {100.0, 400.0}}};
  return g;
}

namespace {

struct CellOutcome {
  std::uint64_t crashes = 0;     ///< summed over replications
  std::uint64_t recoveries = 0;  ///< summed over replications
  std::uint64_t in_flight = 0;   ///< summed over replications
  std::size_t partitioned = 0;   ///< reps that partitioned
  std::size_t healed = 0;        ///< reps whose partition healed
};

}  // namespace

ResultSet RunFaultStudy(const ScenarioContext& ctx, const GenericSpec& g) {
  netsim::ReplicationConfig rep = RepConfig(g);
  rep.keep_reports = true;

  ResultSet results(
      "fault injection: node churn, jam windows and sink outages with "
      "differential verification of the incremental repair paths");
  results.SetMeta("nodes", std::to_string(g.nodes));
  results.SetMeta("spacing", util::FormatFixed(g.spacing_m, 0) + " m");
  results.SetMeta("hop", util::FormatFixed(g.hop_m, 0) + " m");
  results.SetMeta("rate", util::FormatFixed(g.rate_hz, 3) + " /s per node");
  results.SetMeta("horizon", util::FormatFixed(g.horizon_s, 0) + " s");
  results.SetMeta("jam-windows", std::to_string(g.jam_windows));
  results.SetMeta("sink-outages", std::to_string(g.sink_outages));
  results.SetMeta("replications", std::to_string(rep.replications));
  results.SetMeta("seed", std::to_string(rep.seed));

  ResultTable& table = results.AddTable(
      "faults",
      {"config", "crash rate (1/s)", "outage (s)", "crashes", "recoveries",
       "delivery ratio", "delivered", "partitioned", "healed", "in flight",
       "conserved"});

  const core::MarkovCpuModel model;
  // One sweep point per (mode, crash rate, outage): each runs (or
  // replays) through the point harness, with the whole production-vs-
  // oracle differential inside the point.  `cctx` rather than the outer
  // ctx: under the point harness each cell runs in a sub-context whose
  // executor may live inside a forked worker (scenario/harness.hpp).
  const auto run_point = [&](const std::string& label,
                             const GenericSpec& spec) {
    const std::string suffix =
        " r=" + util::FormatFixed(spec.crash_rate_hz, 4) +
        " o=" + util::FormatFixed(spec.outage_s, 0);
    RunPointRow(
        ctx, table, "faults:" + label + suffix, g.seed, label + suffix,
        [&](const ScenarioContext& cctx, const PointEnv&)
            -> std::vector<std::string> {
          netsim::NetSimConfig cfg = BuildNetSimConfig(spec);
          ApplyObs(cctx, cfg);
          const netsim::ReplicationSummary summary =
              RunReplications(cfg, model, rep, cctx.Executor());
          ContributeObs(cctx, summary);
          const netsim::ReplicationSummary shadow =
              RunReplications(OracleTwin(cfg), model, rep, cctx.Executor());

          CellOutcome out;
          const std::string where = "netsim-faults: " + label + suffix;
          for (std::size_t r = 0; r < summary.reports.size(); ++r) {
            const netsim::NetSimReport& report = summary.reports[r];
            RequireEqualReports(report, shadow.reports[r], where, r);
            RequireConserved(report, where, r);
            out.crashes += report.crashes;
            out.recoveries += report.recoveries;
            out.in_flight += report.in_flight;
            const double inf = std::numeric_limits<double>::infinity();
            if (report.partition_s != inf) ++out.partitioned;
            if (report.heal_s != inf) ++out.healed;
          }
          return {label + suffix,
                  util::FormatFixed(spec.crash_rate_hz, 4),
                  util::FormatFixed(spec.outage_s, 0),
                  std::to_string(out.crashes),
                  std::to_string(out.recoveries),
                  MetricCell(summary.delivery_ratio, 4),
                  MetricCell(summary.delivered, 1),
                  ObservedCell(out.partitioned, summary.replications),
                  ObservedCell(out.healed, summary.replications),
                  std::to_string(out.in_flight),
                  "yes"};
        });
  };

  for (const SpecCell& cell : ExpandCells(g)) {
    run_point("flat", cell.spec);
    // The clustered twin of each cell: LEACH rounds of horizon / 10.
    GenericSpec clustered = cell.spec;
    clustered.clustered = true;
    clustered.cluster = ClusterKnobs{};
    clustered.cluster.round_s = clustered.horizon_s / 10.0;
    run_point("clustered", clustered);
  }

  results.AddNote(
      "every replication ran twice: the production paths (incremental "
      "routing repair / grid head assignment) against their oracle "
      "(full recompute after every fault event / all-pairs assignment); "
      "the run aborts on any field divergence or packet-conservation "
      "violation, so a completed table doubles as a chaos-differential "
      "pass.  'healed' counts replications whose partition later closed "
      "when a crashed cut vertex recovered.  All columns are "
      "deterministic per seed: rerunning with any --threads value must "
      "produce byte-identical output.");
  return results;
}

// ------------------------------------------------------------------------
// generic

ResultSet RunGenericStudy(const ScenarioContext& ctx, const GenericSpec& g) {
  const std::vector<SpecCell> cells = ExpandCells(g);
  netsim::ReplicationConfig rep = RepConfig(g);
  rep.keep_reports = true;

  ResultSet results(
      "declarative generic study: conservation-checked sweep cells");
  results.SetMeta("study", "generic");
  results.SetMeta("cells", std::to_string(cells.size()));
  results.SetMeta("replications", std::to_string(rep.replications));
  results.SetMeta("seed", std::to_string(rep.seed));
  std::string verify = "conservation";
  if (g.verify_oracle) verify += " + oracle";
  if (g.verify_analytic) verify += " + analytic";
  results.SetMeta("verify", verify);

  std::vector<std::string> header{"cell"};
  for (const std::string& column : g.columns) header.push_back(column);
  if (g.verify_analytic) {
    header.push_back("analytic first death (s)");
    header.push_back("rel err");
  }
  ResultTable& table = results.AddTable("cells", header);

  const core::MarkovCpuModel model;
  // The whole cell — production run, oracle twin, analytic check and
  // column formatting — is one sweep point, run (or replayed) through
  // the point harness; `cctx` may carry a forked worker's executor.
  const auto run_cell = [&](const ScenarioContext& cctx,
                            const SpecCell& cell) -> std::vector<std::string> {
    netsim::NetSimConfig cfg = BuildNetSimConfig(cell.spec);
    ApplyObs(cctx, cfg);
    const netsim::ReplicationSummary summary =
        RunReplications(cfg, model, rep, cctx.Executor());
    ContributeObs(cctx, summary);

    const std::string where = "spec cell '" + cell.label + "'";
    for (std::size_t r = 0; r < summary.reports.size(); ++r) {
      RequireConserved(summary.reports[r], where, r);
    }

    if (g.verify_oracle) {
      const netsim::ReplicationSummary shadow =
          RunReplications(OracleTwin(cfg), model, rep, cctx.Executor());
      for (std::size_t r = 0; r < summary.reports.size(); ++r) {
        RequireEqualReports(summary.reports[r], shadow.reports[r], where, r);
      }
    }

    double analytic_s = 0.0;
    if (g.verify_analytic) {
      const node::Network analytic_net(cfg.network, cfg.positions);
      const node::NetworkReport analytic =
          cfg.classes.empty()
              ? analytic_net.Evaluate(model)
              : analytic_net.Evaluate(model, netsim::PerNodeConfigs(cfg));
      analytic_s = analytic.network_lifetime_seconds;
      if (summary.first_death_s.observed != rep.replications) {
        throw util::Error(
            where + ": verify.analytic needs a death in every replication "
            "(observed " +
            std::to_string(summary.first_death_s.observed) + "/" +
            std::to_string(rep.replications) +
            "; raise run.horizon_s or shrink node.battery_mah)");
      }
      const double mean = summary.first_death_s.ci.mean;
      const double bound = std::max(3.0 * summary.first_death_s.ci.half_width,
                                    0.1 * analytic_s);
      if (std::abs(mean - analytic_s) > bound) {
        throw util::Error(
            where + ": simulated first death " + util::FormatFixed(mean, 1) +
            " s strayed from the analytic estimate " +
            util::FormatFixed(analytic_s, 1) + " s (bound " +
            util::FormatFixed(bound, 1) + " s)");
      }
    }

    std::uint64_t crashes = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t in_flight = 0;
    std::uint64_t generated = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t events = 0;
    std::size_t healed = 0;
    for (const netsim::NetSimReport& report : summary.reports) {
      crashes += report.crashes;
      recoveries += report.recoveries;
      in_flight += report.in_flight;
      generated += report.packets.generated;
      delivered += report.packets.delivered;
      dropped += report.packets.TotalDropped();
      events += report.events;
      if (std::isfinite(report.heal_s)) ++healed;
    }

    std::vector<std::string> row{cell.label};
    for (const std::string& column : g.columns) {
      if (column == "generated") {
        row.push_back(std::to_string(generated));
      } else if (column == "delivered") {
        row.push_back(std::to_string(delivered));
      } else if (column == "dropped") {
        row.push_back(std::to_string(dropped));
      } else if (column == "crashes") {
        row.push_back(std::to_string(crashes));
      } else if (column == "recoveries") {
        row.push_back(std::to_string(recoveries));
      } else if (column == "events") {
        row.push_back(std::to_string(events));
      } else if (column == "in_flight") {
        row.push_back(std::to_string(in_flight));
      } else if (column == "delivery_ratio") {
        row.push_back(MetricCell(summary.delivery_ratio, 4));
      } else if (column == "first_death_s") {
        row.push_back(MetricCell(summary.first_death_s, 1));
      } else if (column == "partition_s") {
        row.push_back(MetricCell(summary.partition_s, 1));
      } else if (column == "healed") {
        row.push_back(ObservedCell(healed, summary.replications));
      } else {  // conserved — RequireConserved above hard-fails otherwise
        row.push_back("yes");
      }
    }
    if (g.verify_analytic) {
      const double mean = summary.first_death_s.ci.mean;
      row.push_back(util::FormatFixed(analytic_s, 1));
      row.push_back(
          util::FormatFixed(100.0 * std::abs(mean - analytic_s) / analytic_s,
                            2) +
          " %");
    }
    return row;
  };

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SpecCell& cell = cells[i];
    RunPointRow(ctx, table,
                "cell " + std::to_string(i) + ": " + cell.label, g.seed,
                cell.label,
                [&run_cell, &cell](const ScenarioContext& cctx,
                                   const PointEnv&) {
                  return run_cell(cctx, cell);
                });
  }

  results.AddNote(
      "every cell asserted packet conservation on every replication" +
      std::string(g.verify_oracle
                      ? "; every replication also ran against its "
                        "full-recompute oracle twin and matched field for "
                        "field"
                      : "") +
      std::string(g.verify_analytic
                      ? "; the simulated first death was checked against "
                        "the closed-form estimator within max(3 CI "
                        "half-widths, 10%)"
                      : "") +
      ".  All columns are deterministic per seed: any --threads value "
      "produces byte-identical output.");
  return results;
}

}  // namespace wsn::scenario
