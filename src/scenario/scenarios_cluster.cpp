// Registered scenarios for the clustered / heterogeneous network
// workloads: the LEACH-style clustered lifetime study, the mixed
// node-class (SEP-style) deployment with its analytic cross-check, and
// the policy ablation (flat vs static clusters vs rotating clusters)
// where network lifetime depends on protocol choice, not just energy
// bookkeeping.  Each scenario starts from its study's GenericSpec
// defaults and overrides them with its flags.  The clustered and
// heterogeneous scenarios then call their study's renderer in
// scenario/studies.{hpp,cpp}, the one a `wsnctl run --file` spec of that
// study also reaches; the ablation builds its three configs with the
// same BuildNetSimConfig.  The flags' help shows the defaults, read from
// the same *Defaults().
#include <string>
#include <utility>
#include <vector>

#include "core/models.hpp"
#include "netsim/replication.hpp"
#include "scenario/common.hpp"
#include "scenario/scenario.hpp"
#include "scenario/studies.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace wsn::scenario {
namespace {

/// The grid, node and horizon flags shared by the three scenarios, plus
/// --hop and --sinks, over `g`'s defaults.
void ApplyGridFlags(const util::CliArgs& args, GenericSpec& g) {
  g.cols = args.GetCount("cols", g.cols, 1);
  g.rows = args.GetCount("rows", g.rows, 1);
  g.spacing_m = PositiveFlag(args, "spacing", g.spacing_m);
  g.hop_m = PositiveFlag(args, "hop", g.hop_m);
  g.rate_hz = PositiveFlag(args, "rate", g.rate_hz);
  g.battery_mah = args.GetDouble("battery-mah", g.battery_mah);
  g.horizon_s = args.GetDouble("horizon", g.horizon_s);
  g.sinks = args.GetCount("sinks", g.sinks, 1);
  util::Require(g.sinks <= 4, "flag --sinks must be in 1..4");
}

/// The ClusterFlags knobs except --sinks, over `g`'s defaults.
void ApplyClusterFlags(const util::CliArgs& args, GenericSpec& g) {
  g.cluster.protocol = netsim::ParseClusterProtocolKind(args.GetString(
      "protocol", netsim::ClusterProtocolKindName(g.cluster.protocol)));
  g.cluster.head_fraction =
      args.GetDouble("head-fraction", g.cluster.head_fraction);
  util::Require(g.cluster.head_fraction > 0.0 &&
                    g.cluster.head_fraction <= 1.0,
                "flag --head-fraction must be in (0, 1] (got " +
                    CompactNumber(g.cluster.head_fraction) + ")");
  g.cluster.static_heads =
      args.GetCount("static-heads", g.cluster.static_heads);
  g.cluster.round_s = PositiveFlag(args, "round", g.cluster.round_s);
  g.cluster.aggregation =
      args.GetCount("aggregation", g.cluster.aggregation, 1);
}

/// The flags ApplyGridFlags (except --sinks) and ApplyEffortFlags read,
/// their help showing `d`'s values.
std::vector<util::FlagSpec> GridFlags(const GenericSpec& d) {
  return {
      {"cols", "C", std::to_string(d.cols), "grid columns"},
      {"rows", "R", std::to_string(d.rows), "grid rows"},
      {"spacing", "M", CompactNumber(d.spacing_m), "grid spacing (m, > 0)"},
      {"rate", "L", CompactNumber(d.rate_hz),
       "per-node report rate (1/s, > 0)"},
      {"battery-mah", "MAH", CompactNumber(d.battery_mah),
       "per-node battery capacity"},
      {"horizon", "S", CompactNumber(d.horizon_s), "simulation horizon (s)"},
      {"replications", "R", std::to_string(d.replications),
       "independent replications (>= 1)"},
      {"seed", "N", std::to_string(d.seed), "master RNG seed (non-negative)"},
      {"hop", "M", CompactNumber(d.hop_m), "max radio hop range (m, > 0)"},
  };
}

/// The ApplyClusterFlags knobs plus --sinks, their help showing `d`'s
/// values.
std::vector<util::FlagSpec> ClusterFlags(const GenericSpec& d) {
  return {
      {"protocol", "P", netsim::ClusterProtocolKindName(d.cluster.protocol),
       "clustering protocol: leach or static"},
      {"head-fraction", "F", CompactNumber(d.cluster.head_fraction),
       "desired cluster-head fraction (0, 1]"},
      {"static-heads", "K", std::to_string(d.cluster.static_heads),
       "static protocol head count (0 = head-fraction * nodes)"},
      {"round", "S", CompactNumber(d.cluster.round_s),
       "cluster round length (s, > 0)"},
      {"aggregation", "K", std::to_string(d.cluster.aggregation),
       "member samples per upstream packet (>= 1)"},
      {"sinks", "N", std::to_string(d.sinks),
       "sink count, 1-4 (placed at deployment corners)"},
  };
}

// ------------------------------------------------------------------------
// netsim-clustered: LEACH-style (or static) clustered collection on a
// node grid — head rotation, in-cluster aggregation, multi-sink uplink.
ResultSet RunNetsimClustered(const ScenarioContext& ctx) {
  const util::CliArgs& args = ctx.Args();
  GenericSpec g = ClusteredDefaults();
  ApplyGridFlags(args, g);
  ApplyClusterFlags(args, g);
  ApplyEffortFlags(args, g);
  return RunClusteredStudy(ctx, g);
}

// ------------------------------------------------------------------------
// netsim-heterogeneous: a two-class (SEP-style) deployment — a fraction
// of "advanced" nodes with a larger battery among "standard" ones —
// simulated flat with rerouting off so the analytic heterogeneous
// estimator (wsn::Network::Evaluate per-node overload) cross-validates
// the simulated time to first death.
ResultSet RunNetsimHeterogeneous(const ScenarioContext& ctx) {
  const util::CliArgs& args = ctx.Args();
  GenericSpec g = HeterogeneousDefaults();
  ApplyGridFlags(args, g);
  g.advanced_fraction =
      args.GetDouble("advanced-fraction", g.advanced_fraction);
  g.battery_factor = args.GetDouble("battery-factor", g.battery_factor);
  g.placement = args.GetString("placement", g.placement);
  ApplyEffortFlags(args, g);
  util::Require(g.advanced_fraction >= 0.0 && g.advanced_fraction <= 1.0,
                "advanced fraction must be in [0, 1]");
  util::Require(g.battery_factor > 0.0, "battery factor must be positive");
  util::Require(g.placement == "hotspot" || g.placement == "spread",
                "placement must be hotspot or spread");
  return RunHeterogeneousStudy(ctx, g);
}

// ------------------------------------------------------------------------
// cluster-ablation: the same deployment under three collection policies —
// flat greedy multi-hop, static clusters, LEACH-style rotation — showing
// that lifetime is a function of protocol policy.
ResultSet RunClusterAblation(const ScenarioContext& ctx) {
  const util::CliArgs& args = ctx.Args();
  GenericSpec g = ClusteredDefaults();
  ApplyGridFlags(args, g);
  ApplyClusterFlags(args, g);
  ApplyEffortFlags(args, g);

  g.clustered = false;  // greedy multi-hop, no clustering
  netsim::NetSimConfig flat = BuildNetSimConfig(g);
  g.clustered = true;
  g.cluster.protocol = netsim::ClusterProtocolKind::kLeach;
  netsim::NetSimConfig leach = BuildNetSimConfig(g);
  g.cluster.protocol = netsim::ClusterProtocolKind::kStatic;
  netsim::NetSimConfig still = BuildNetSimConfig(g);

  netsim::ReplicationConfig rep;
  rep.replications = g.replications;
  rep.seed = g.seed;
  const core::MarkovCpuModel model;
  ApplyObs(ctx, flat);
  ApplyObs(ctx, still);
  ApplyObs(ctx, leach);
  const netsim::ReplicationSummary flat_sum =
      RunReplications(flat, model, rep, ctx.Executor());
  const netsim::ReplicationSummary still_sum =
      RunReplications(still, model, rep, ctx.Executor());
  const netsim::ReplicationSummary leach_sum =
      RunReplications(leach, model, rep, ctx.Executor());
  ContributeObs(ctx, flat_sum);
  ContributeObs(ctx, still_sum);
  ContributeObs(ctx, leach_sum);

  ResultSet results(
      "cluster ablation: flat vs static heads vs LEACH-style rotation");
  results.SetMeta("nodes", std::to_string(flat.positions.size()));
  results.SetMeta("round", util::FormatFixed(leach.cluster.round_s, 0) + " s");
  results.SetMeta("head fraction",
                  util::FormatFixed(leach.cluster.head_fraction, 2));
  results.SetMeta("aggregation", std::to_string(leach.cluster.aggregation));
  results.SetMeta("replications", std::to_string(rep.replications));
  results.SetMeta("seed", std::to_string(rep.seed));

  ResultTable& table = results.AddTable(
      "summary", {"policy", "metric", "mean +- 95% CI", "observed in"});
  AddLifetimeRows(table, "flat", flat_sum);
  AddLifetimeRows(table, "static", still_sum);
  AddLifetimeRows(table, "leach", leach_sum);

  ResultTable& verdict = results.AddTable(
      "first-death-ranking", {"policy", "mean first death (s)"});
  verdict.AddRow({"flat", MetricCell(flat_sum.first_death_s, 1)});
  verdict.AddRow({"static", MetricCell(still_sum.first_death_s, 1)});
  verdict.AddRow({"leach", MetricCell(leach_sum.first_death_s, 1)});

  if (leach_sum.first_death_s.observed > 0 &&
      still_sum.first_death_s.observed > 0) {
    const double leach_gain =
        leach_sum.first_death_s.ci.mean / still_sum.first_death_s.ci.mean;
    results.AddNote(
        "rotation gain: LEACH first-node-death is " +
        util::FormatFixed(leach_gain, 2) +
        "x the static-cluster baseline (fixed heads drain first; rotating "
        "the head role spreads the aggregation + uplink cost)");
  } else {
    results.AddNote(
        "no node died before the horizon in at least one policy — raise "
        "--horizon or shrink --battery-mah to compare lifetimes");
  }
  return results;
}

const ScenarioRegistrar reg_netsim_clustered(MakeScenario(
    "netsim-clustered",
    "clustered collection: rotating cluster heads, aggregation, multi-sink",
    "extension (cluster-based workload)",
    [] {
      const GenericSpec d = ClusteredDefaults();
      std::vector<util::FlagSpec> flags = GridFlags(d);
      for (util::FlagSpec& f : ClusterFlags(d)) flags.push_back(std::move(f));
      return flags;
    }(),
    RunNetsimClustered));

const ScenarioRegistrar reg_netsim_heterogeneous(MakeScenario(
    "netsim-heterogeneous",
    "mixed node classes (SEP-style) with analytic cross-validation",
    "extension (heterogeneous workload)",
    [] {
      const GenericSpec d = HeterogeneousDefaults();
      std::vector<util::FlagSpec> flags = GridFlags(d);
      flags.push_back({"advanced-fraction", "F",
                       CompactNumber(d.advanced_fraction),
                       "fraction of advanced nodes [0, 1]"});
      flags.push_back({"battery-factor", "X", CompactNumber(d.battery_factor),
                       "advanced battery capacity multiplier"});
      flags.push_back({"placement", "P", d.placement,
                       "advanced-node placement: hotspot (highest analytic "
                       "relay load) or spread (index-strided)"});
      return flags;
    }(),
    RunNetsimHeterogeneous));

const ScenarioRegistrar reg_cluster_ablation(MakeScenario(
    "cluster-ablation",
    "flat vs static clusters vs LEACH rotation on one deployment",
    "extension (protocol-policy ablation)",
    [] {
      const GenericSpec d = ClusteredDefaults();
      std::vector<util::FlagSpec> flags = GridFlags(d);
      for (util::FlagSpec& f : ClusterFlags(d)) {
        // The ablation runs every protocol; a --protocol choice would be
        // silently ignored, so it is not part of this vocabulary.
        if (f.name != "protocol") flags.push_back(std::move(f));
      }
      return flags;
    }(),
    RunClusterAblation));

}  // namespace
}  // namespace wsn::scenario
