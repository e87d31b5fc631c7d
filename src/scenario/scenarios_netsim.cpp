// Registered scenarios for the packet-level network simulator: the
// lifetime study (deaths, re-routing, partition under bursty traffic)
// and the replication-throughput benchmark.  Each wrapper starts from
// its study's GenericSpec defaults, overrides them with its flags and
// calls the study's renderer in scenario/studies.{hpp,cpp} — the same
// defaults and renderer a `wsnctl run --file` spec of that study uses.
#include <string>
#include <utility>
#include <vector>

#include "scenario/common.hpp"
#include "scenario/scenario.hpp"
#include "scenario/studies.hpp"

namespace wsn::scenario {
namespace {

/// The --cols/--rows/--spacing/--hop/--rate flags shared by both
/// studies, over `g`'s defaults.
void ApplyTopologyFlags(const util::CliArgs& args, GenericSpec& g) {
  g.cols = args.GetCount("cols", g.cols, 1);
  g.rows = args.GetCount("rows", g.rows, 1);
  g.spacing_m = args.GetDouble("spacing", g.spacing_m);
  g.hop_m = args.GetDouble("hop", g.hop_m);
  g.rate_hz = args.GetDouble("rate", g.rate_hz);
}

ResultSet RunNetsimLifetime(const ScenarioContext& ctx) {
  const util::CliArgs& args = ctx.Args();
  GenericSpec g = LifetimeDefaults();
  ApplyTopologyFlags(args, g);
  g.battery_mah = args.GetDouble("battery-mah", g.battery_mah);
  g.horizon_s = args.GetDouble("horizon", g.horizon_s);
  g.bursty = !args.GetBool("steady");
  ApplyEffortFlags(args, g);
  return RunLifetimeStudy(ctx, g);
}

ResultSet RunNetsimThroughput(const ScenarioContext& ctx) {
  const util::CliArgs& args = ctx.Args();
  GenericSpec g = ThroughputDefaults();
  ApplyTopologyFlags(args, g);
  g.horizon_s = args.GetDouble("horizon", g.horizon_s);
  g.clustered = args.GetBool("clustered");
  ApplyEffortFlags(args, g);
  return RunThroughputStudy(ctx, g);
}

std::vector<util::FlagSpec> TopologyFlags(const std::string& cols,
                                          const std::string& rows,
                                          const std::string& spacing) {
  return {
      {"cols", "C", cols, "grid columns"},
      {"rows", "R", rows, "grid rows"},
      {"spacing", "M", spacing, "grid spacing (m)"},
      {"hop", "M", "40", "max radio hop range (m)"},
      {"rate", "L", "2", "per-node report rate (1/s)"},
  };
}

const ScenarioRegistrar reg_netsim_lifetime(MakeScenario(
    "netsim-lifetime",
    "packet-level lifetime study: deaths, re-routing and partition",
    "extension (dynamic counterpart of wsn-lifetime)",
    [] {
      std::vector<util::FlagSpec> flags = TopologyFlags("10", "5", "15");
      flags.push_back({"battery-mah", "MAH", "0.05", "per-node battery"});
      flags.push_back({"horizon", "S", "4000", "simulation horizon (s)"});
      flags.push_back({"replications", "R", "8",
                       "independent replications (>= 1)"});
      flags.push_back({"seed", "N", "2008", "master RNG seed (non-negative)"});
      flags.push_back({"steady", "", "",
                       "steady Poisson traffic instead of bursty MMPP"});
      return flags;
    }(),
    RunNetsimLifetime));

const ScenarioRegistrar reg_netsim_throughput(MakeScenario(
    "netsim-throughput",
    "replications/second: serial vs the scenario executor",
    "extension (engineering benchmark)",
    [] {
      std::vector<util::FlagSpec> flags = TopologyFlags("10", "10", "25");
      flags.push_back({"horizon", "S", "30", "simulation horizon (s)"});
      flags.push_back({"replications", "R", "32",
                       "independent replications (>= 1)"});
      flags.push_back({"seed", "N", "2008", "master RNG seed (non-negative)"});
      flags.push_back({"clustered", "", "",
                       "benchmark the clustered (LEACH) data path"});
      return flags;
    }(),
    RunNetsimThroughput));

}  // namespace
}  // namespace wsn::scenario
