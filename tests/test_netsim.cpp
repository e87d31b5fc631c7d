// Packet-level network simulator: routing over the live set, per-(seed,
// replication) determinism, convergence to the analytic lifetime, death-
// triggered re-routing and partition detection.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/models.hpp"
#include "des/bursty_workload.hpp"
#include "netsim/netsim.hpp"
#include "netsim/replication.hpp"
#include "netsim/routing.hpp"
#include "wsn/network.hpp"

namespace wsn::netsim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A near-zero-power CPU table so the radio's per-packet energy dominates:
// this keeps replication-to-replication variance meaningful (the packet
// process, not a deterministic baseline, decides the death time).
energy::PowerStateTable TinyCpuTable() {
  energy::PowerStateTable t;
  t.name = "tiny";
  t.standby_mw = 0.005;
  t.idle_mw = 0.01;
  t.powerup_mw = 0.02;
  t.active_mw = 0.02;
  return t;
}

node::NodeConfig PacketDominatedNode() {
  node::NodeConfig cfg;
  cfg.cpu.arrival_rate = 15.0;
  cfg.cpu.service_rate = 150.0;
  cfg.cpu.power_down_threshold = 0.1;
  cfg.cpu.power_up_delay = 0.001;
  cfg.cpu_power = TinyCpuTable();
  cfg.sample_bits = 2048;
  cfg.listen_duty_cycle = 0.01;
  cfg.report_fraction = 1.0;
  cfg.battery_mah = 0.3;
  cfg.battery_volts = 3.0;
  return cfg;
}

/// The three-node chain from the static-estimator tests: 2 -> 1 -> 0 ->
/// sink, every hop 50 m.
NetSimConfig ChainConfig() {
  NetSimConfig cfg;
  cfg.network.node = PacketDominatedNode();
  cfg.network.sink = {0.0, 0.0};
  cfg.network.max_hop_m = 60.0;
  cfg.positions = {{50.0, 0.0}, {100.0, 0.0}, {150.0, 0.0}};
  return cfg;
}

TEST(RoutingTable, GreedyChainAndLiveSubset) {
  RoutingTable table({0.0, 0.0}, 60.0,
                     {{50.0, 0.0}, {100.0, 0.0}, {150.0, 0.0}});
  EXPECT_EQ(table.NextHop(0), RoutingTable::kSink);
  EXPECT_EQ(table.NextHop(1), 0u);
  EXPECT_EQ(table.NextHop(2), 1u);
  EXPECT_DOUBLE_EQ(table.HopDistance(2), 50.0);

  std::vector<bool> alive{true, false, true};
  table.Recompute(alive);
  EXPECT_EQ(table.NextHop(0), RoutingTable::kSink);
  EXPECT_EQ(table.NextHop(1), RoutingTable::kNoRoute);
  // Node 2 lost its only in-range relay: 100 m to node 0 is out of range.
  EXPECT_EQ(table.NextHop(2), RoutingTable::kNoRoute);
  EXPECT_TRUE(table.Connected(0, alive));
  EXPECT_FALSE(table.Connected(2, alive));
}

TEST(RoutingTable, StaleChainThroughDeadNodeDisconnects) {
  RoutingTable table({0.0, 0.0}, 60.0,
                     {{50.0, 0.0}, {100.0, 0.0}, {150.0, 0.0}});
  // No Recompute: the table still says 2 -> 1 -> 0, but node 1 is dead.
  std::vector<bool> alive{true, false, true};
  EXPECT_FALSE(table.Connected(2, alive));
  EXPECT_TRUE(table.Connected(0, alive));
}

TEST(NetSim, DeterministicForFixedSeedAndReplication) {
  NetSimConfig cfg = ChainConfig();
  cfg.horizon_s = 120.0;
  const core::MarkovCpuModel model;
  const double cpu_mw = CpuAveragePowerMw(cfg, model);
  const util::Rng master(1234);

  NetworkSimulator a(cfg, cpu_mw, master.MakeStream(3));
  NetworkSimulator b(cfg, cpu_mw, master.MakeStream(3));
  const NetSimReport ra = a.Run();
  const NetSimReport rb = b.Run();
  EXPECT_EQ(ra.packets.generated, rb.packets.generated);
  EXPECT_EQ(ra.packets.delivered, rb.packets.delivered);
  EXPECT_EQ(ra.events, rb.events);
  EXPECT_EQ(ra.first_death_s, rb.first_death_s);
  EXPECT_TRUE(ra.Conserved()) << "generated " << ra.packets.generated
                              << " != delivered + dropped + in flight";
  ASSERT_EQ(ra.nodes.size(), rb.nodes.size());
  for (std::size_t i = 0; i < ra.nodes.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.nodes[i].remaining_j, rb.nodes[i].remaining_j);
  }
}

TEST(NetSim, ReplicationResultsIndependentOfThreadCount) {
  NetSimConfig cfg = ChainConfig();
  cfg.horizon_s = 60.0;
  const core::MarkovCpuModel model;

  ReplicationConfig serial;
  serial.replications = 6;
  serial.seed = 77;
  serial.keep_reports = true;
  ReplicationConfig parallel = serial;

  util::ParallelExecutor one(1);
  util::ParallelExecutor four(4);
  const ReplicationSummary rs = RunReplications(cfg, model, serial, one);
  const ReplicationSummary rp = RunReplications(cfg, model, parallel, four);
  ASSERT_EQ(rs.reports.size(), rp.reports.size());
  for (std::size_t r = 0; r < rs.reports.size(); ++r) {
    EXPECT_EQ(rs.reports[r].packets.delivered, rp.reports[r].packets.delivered)
        << "replication " << r;
    EXPECT_EQ(rs.reports[r].events, rp.reports[r].events);
    EXPECT_DOUBLE_EQ(rs.reports[r].first_death_s, rp.reports[r].first_death_s);
  }
  EXPECT_DOUBLE_EQ(rs.delivery_ratio.ci.mean, rp.delivery_ratio.ci.mean);
}

// Acceptance anchor: with re-routing disabled and steady traffic, the
// mean simulated time-to-first-death over >= 32 replications must agree
// with the static estimator on the same topology (analytic value inside
// the replications' 95% confidence interval).
TEST(NetSim, FirstDeathMatchesAnalyticLifetimeOnChain) {
  NetSimConfig cfg = ChainConfig();
  cfg.rerouting = false;
  cfg.stop_at_first_death = true;
  cfg.horizon_s = 5000.0;

  const core::MarkovCpuModel model;
  node::NetworkConfig net_cfg = cfg.network;
  const node::NetworkReport analytic =
      node::Network(net_cfg, cfg.positions).Evaluate(model);

  ReplicationConfig rep;
  rep.replications = 40;
  rep.seed = 2008;
  util::ParallelExecutor executor;
  const ReplicationSummary summary =
      RunReplications(cfg, model, rep, executor);

  ASSERT_EQ(summary.first_death_s.observed, rep.replications)
      << "every replication must reach a first death before the horizon";
  const util::ConfidenceInterval& ci = summary.first_death_s.ci;
  EXPECT_GT(ci.half_width, 0.0);
  EXPECT_TRUE(ci.Contains(analytic.network_lifetime_seconds))
      << "simulated " << ci.mean << " +- " << ci.half_width
      << " s vs analytic " << analytic.network_lifetime_seconds << " s";
  // The interval should be tight, not vacuously wide.
  EXPECT_LT(ci.half_width, 0.05 * ci.mean);
}

// Acceptance: a relay death triggers a re-route and delivery continues
// (ratio > 0) until the network partitions.
TEST(NetSim, DeathTriggersRerouteAndDeliveryContinuesUntilPartition) {
  NetSimConfig cfg;
  cfg.network.node = PacketDominatedNode();
  cfg.network.node.cpu.arrival_rate = 10.0;
  cfg.network.sink = {0.0, 0.0};
  cfg.network.max_hop_m = 70.0;
  // Source out of sink range; relays A (preferred, tiny battery) and B
  // (fallback).  When A dies the source must fail over to B.
  cfg.positions = {{100.0, 0.0}, {48.0, 10.0}, {52.0, -10.0}};
  cfg.battery_mah_override = {1.0, 0.005, 0.02};
  cfg.horizon_s = 1.0e6;
  cfg.stop_at_partition = true;

  const core::MarkovCpuModel model;
  const double cpu_mw = CpuAveragePowerMw(cfg, model);
  const util::Rng master(99);

  NetworkSimulator with_reroute(cfg, cpu_mw, master.MakeStream(0));
  const NetSimReport report = with_reroute.Run();

  EXPECT_EQ(report.first_dead_node, 1u);  // A, the preferred relay
  ASSERT_TRUE(std::isfinite(report.partition_s));
  EXPECT_GT(report.partition_s, report.first_death_s)
      << "fallback relay B must keep the source connected after A dies";
  EXPECT_GT(report.DeliveryRatio(), 0.0);
  EXPECT_EQ(report.end_s, report.partition_s);
  EXPECT_TRUE(report.Conserved());

  NetSimConfig static_cfg = cfg;
  static_cfg.rerouting = false;
  NetworkSimulator without_reroute(static_cfg, cpu_mw, master.MakeStream(0));
  const NetSimReport static_report = without_reroute.Run();
  // Without re-routing the source is cut off the moment A dies.
  EXPECT_DOUBLE_EQ(static_report.partition_s, static_report.first_death_s);
  EXPECT_GT(report.packets.delivered, static_report.packets.delivered);
}

TEST(NetSim, InitiallyPartitionedDeploymentIsDetectedAtTimeZero) {
  NetSimConfig cfg;
  cfg.network.node = PacketDominatedNode();
  cfg.network.sink = {0.0, 0.0};
  cfg.network.max_hop_m = 50.0;
  cfg.positions = {{200.0, 0.0}};  // unreachable singleton
  cfg.horizon_s = 20.0;

  const core::MarkovCpuModel model;
  NetworkSimulator sim(cfg, CpuAveragePowerMw(cfg, model), util::Rng(5));
  const NetSimReport report = sim.Run();
  EXPECT_DOUBLE_EQ(report.partition_s, 0.0);
  EXPECT_EQ(report.packets.delivered, 0u);
  EXPECT_GT(report.packets.Dropped(DropReason::kNoRoute), 0u);
  EXPECT_DOUBLE_EQ(report.DeliveryRatio(), 0.0);
}

TEST(NetSim, EnergyTimelinesAreMonotoneNonIncreasing) {
  NetSimConfig cfg = ChainConfig();
  cfg.horizon_s = 30.0;
  cfg.timeline_interval_s = 5.0;

  const core::MarkovCpuModel model;
  NetworkSimulator sim(cfg, CpuAveragePowerMw(cfg, model), util::Rng(11));
  const NetSimReport report = sim.Run();
  for (const NodeSimStats& node : report.nodes) {
    ASSERT_GE(node.timeline.size(), 2u);
    for (std::size_t k = 1; k < node.timeline.size(); ++k) {
      EXPECT_GT(node.timeline[k].time_s, node.timeline[k - 1].time_s);
      EXPECT_LE(node.timeline[k].remaining_j,
                node.timeline[k - 1].remaining_j);
    }
  }
}

TEST(NetSim, BurstyTrafficRunsAndStaysDeterministic) {
  NetSimConfig cfg = ChainConfig();
  cfg.horizon_s = 80.0;
  // Quiet/storm MMPP phases instead of steady Poisson.
  cfg.traffic_factory = [](std::size_t) {
    return std::make_unique<des::MmppWorkload>(
        std::vector<double>{2.0, 40.0},
        std::vector<std::vector<double>>{{-0.2, 0.2}, {1.0, -1.0}});
  };

  const core::MarkovCpuModel model;
  const double cpu_mw = CpuAveragePowerMw(cfg, model);
  const util::Rng master(31);
  NetworkSimulator a(cfg, cpu_mw, master.MakeStream(0));
  NetworkSimulator b(cfg, cpu_mw, master.MakeStream(0));
  const NetSimReport ra = a.Run();
  const NetSimReport rb = b.Run();
  EXPECT_GT(ra.packets.generated, 0u);
  EXPECT_GT(ra.packets.delivered, 0u);
  EXPECT_EQ(ra.packets.generated, rb.packets.generated);
  EXPECT_EQ(ra.packets.delivered, rb.packets.delivered);
}

TEST(NetSim, LossyLinksPayRetransmissionEnergy) {
  NetSimConfig lossless = ChainConfig();
  lossless.horizon_s = 40.0;
  NetSimConfig lossy = lossless;
  lossy.mac.p_loss = 0.3;
  lossy.mac.max_retries = 5;

  const core::MarkovCpuModel model;
  const double cpu_mw = CpuAveragePowerMw(lossless, model);
  const util::Rng master(7);
  NetworkSimulator a(lossless, cpu_mw, master.MakeStream(0));
  NetworkSimulator b(lossy, cpu_mw, master.MakeStream(0));
  const NetSimReport clean = a.Run();
  const NetSimReport noisy = b.Run();
  EXPECT_EQ(clean.packets.retransmissions, 0u);
  EXPECT_GT(noisy.packets.retransmissions, 0u);
  // Retransmissions burn extra energy at the bottleneck relay.
  EXPECT_LT(noisy.nodes[0].remaining_j, clean.nodes[0].remaining_j);
  EXPECT_TRUE(clean.Conserved());
  EXPECT_TRUE(noisy.Conserved());
}

TEST(NetSim, ConfigValidation) {
  NetSimConfig cfg = ChainConfig();
  cfg.battery_mah_override = {1.0};  // wrong arity: 3 nodes
  EXPECT_THROW(cfg.Validate(), util::InvalidArgument);

  NetSimConfig bad_mac = ChainConfig();
  bad_mac.mac.bitrate_bps = 0.0;
  EXPECT_THROW(bad_mac.Validate(), util::InvalidArgument);

  NetSimConfig empty = ChainConfig();
  empty.positions.clear();
  EXPECT_THROW(empty.Validate(), util::InvalidArgument);
}

}  // namespace
}  // namespace wsn::netsim
