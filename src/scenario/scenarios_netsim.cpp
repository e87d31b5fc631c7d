// Registered scenarios for the packet-level network simulator: the
// lifetime study (deaths, re-routing, partition under bursty traffic)
// and the replication-throughput benchmark.  Each wrapper starts from
// its study's GenericSpec defaults, overrides them with its flags and
// calls the study's renderer in scenario/studies.{hpp,cpp} — the same
// defaults and renderer a `wsnctl run --file` spec of that study uses.
// The flags' help shows those defaults, read from the same *Defaults().
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
  g.spacing_m = PositiveFlag(args, "spacing", g.spacing_m);
  g.hop_m = PositiveFlag(args, "hop", g.hop_m);
  g.rate_hz = PositiveFlag(args, "rate", g.rate_hz);
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

/// The flags ApplyTopologyFlags reads, their help showing `d`'s values.
std::vector<util::FlagSpec> TopologyFlags(const GenericSpec& d) {
  return {
      {"cols", "C", std::to_string(d.cols), "grid columns"},
      {"rows", "R", std::to_string(d.rows), "grid rows"},
      {"spacing", "M", CompactNumber(d.spacing_m), "grid spacing (m, > 0)"},
      {"hop", "M", CompactNumber(d.hop_m), "max radio hop range (m, > 0)"},
      {"rate", "L", CompactNumber(d.rate_hz),
       "per-node report rate (1/s, > 0)"},
  };
}

const ScenarioRegistrar reg_netsim_lifetime(MakeScenario(
    "netsim-lifetime",
    "packet-level lifetime study: deaths, re-routing and partition",
    "extension (dynamic counterpart of wsn-lifetime)",
    [] {
      const GenericSpec d = LifetimeDefaults();
      std::vector<util::FlagSpec> flags = TopologyFlags(d);
      flags.push_back({"battery-mah", "MAH", CompactNumber(d.battery_mah),
                       "per-node battery"});
      flags.push_back({"horizon", "S", CompactNumber(d.horizon_s),
                       "simulation horizon (s)"});
      flags.push_back({"replications", "R", std::to_string(d.replications),
                       "independent replications (>= 1)"});
      flags.push_back({"seed", "N", std::to_string(d.seed),
                       "master RNG seed (non-negative)"});
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
      const GenericSpec d = ThroughputDefaults();
      std::vector<util::FlagSpec> flags = TopologyFlags(d);
      flags.push_back({"horizon", "S", CompactNumber(d.horizon_s),
                       "simulation horizon (s)"});
      flags.push_back({"replications", "R", std::to_string(d.replications),
                       "independent replications (>= 1)"});
      flags.push_back({"seed", "N", std::to_string(d.seed),
                       "master RNG seed (non-negative)"});
      flags.push_back({"clustered", "", "",
                       "benchmark the clustered (LEACH) data path"});
      return flags;
    }(),
    RunNetsimThroughput));

}  // namespace
}  // namespace wsn::scenario
