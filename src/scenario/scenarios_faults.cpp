// Registered fault-injection / chaos scenario: a crash-rate x
// outage-length sweep of the deterministic fault engine, run flat and
// clustered on the same deployment, with every replication
// differentially verified against its oracle twin.  The wrapper starts
// from FaultDefaults(), maps --crash-rates / --outages onto the spec's
// two sweep axes and the other flags onto its knobs, and calls
// RunFaultStudy in scenario/studies.{hpp,cpp} — the renderer a
// `wsnctl run --file` faults spec also reaches.
#include <string>
#include <vector>

#include "scenario/common.hpp"
#include "scenario/scenario.hpp"
#include "scenario/studies.hpp"
#include "util/error.hpp"

namespace wsn::scenario {
namespace {

std::vector<double> ParsePositiveCsv(const std::string& csv,
                                     const char* flag) {
  std::vector<double> values;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item =
        csv.substr(start, comma == std::string::npos ? csv.size() - start
                                                     : comma - start);
    util::Require(!item.empty(),
                  std::string("flag --") + flag + ": empty entry");
    double parsed = 0.0;
    std::size_t consumed = 0;
    try {
      parsed = std::stod(item, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != item.size() || !(parsed > 0.0)) {
      throw util::InvalidArgument(std::string("flag --") + flag + ": '" +
                                  item + "' is not a positive number");
    }
    values.push_back(parsed);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  util::Require(!values.empty(), std::string("flag --") + flag +
                                     " needs at least one entry");
  return values;
}

/// An optional window-length flag: absent keeps 0 (the study's
/// horizon / 10 default); present must be > 0.
double OptionalLength(const util::CliArgs& args, const char* flag) {
  if (!args.Has(flag)) return 0.0;
  const double v = args.GetDouble(flag, 0.0);
  util::Require(v > 0.0, std::string("flag --") + flag +
                             " must be positive (got " + CompactNumber(v) +
                             ")");
  return v;
}

ResultSet RunNetsimFaults(const ScenarioContext& ctx) {
  const util::CliArgs& args = ctx.Args();
  GenericSpec g = FaultDefaults();
  g.nodes = args.GetCount("nodes", g.nodes, 2);
  g.spacing_m = args.GetDouble("spacing", g.spacing_m);
  g.hop_m = args.GetDouble("hop", g.hop_m);
  g.rate_hz = args.GetDouble("rate", g.rate_hz);
  g.horizon_s = args.GetDouble("horizon", g.horizon_s);
  if (args.Has("crash-rates")) {
    SweepValues(g, "faults.crash_rate") =
        ParsePositiveCsv(args.GetString("crash-rates", ""), "crash-rates");
  }
  if (args.Has("outages")) {
    SweepValues(g, "faults.outage_s") =
        ParsePositiveCsv(args.GetString("outages", ""), "outages");
  }
  g.jam_windows = args.GetCount("jam-windows", g.jam_windows, 0);
  g.jam_radius_m = args.GetDouble("jam-radius", g.jam_radius_m);
  g.jam_duration_s = OptionalLength(args, "jam-duration");
  g.jam_p_loss = args.GetDouble("jam-ploss", g.jam_p_loss);
  g.sink_outages = args.GetCount("sink-outages", g.sink_outages, 0);
  g.sink_outage_s = OptionalLength(args, "sink-outage");
  ApplyEffortFlags(args, g);
  return RunFaultStudy(ctx, g);
}

const ScenarioRegistrar reg_netsim_faults(MakeScenario(
    "netsim-faults",
    "fault-injection chaos sweep: crash-rate x outage-length churn with "
    "jam windows and sink outages, flat and clustered, differentially "
    "verified against full-recompute oracles",
    "extension (robustness / chaos-differential testing)",
    {
        {"nodes", "N", "144", "deployment size (>= 2)"},
        {"spacing", "M", "15", "grid spacing (m)"},
        {"hop", "M", "40", "max radio hop range (m)"},
        {"rate", "L", "0.05", "per-node report rate (1/s)"},
        {"horizon", "S", "2000", "simulation horizon (s)"},
        {"crash-rates", "CSV", "0.0002,0.001",
         "per-node transient crash rates to sweep (1/s)"},
        {"outages", "CSV", "100,400", "mean outage durations to sweep (s)"},
        {"jam-windows", "N", "2", "regional jam windows per run (0 = none)"},
        {"jam-radius", "M", "45", "jam disc radius (m)"},
        {"jam-duration", "S", "",
         "jam window length (s, > 0); default horizon/10"},
        {"jam-ploss", "P", "0.5", "extra per-attempt loss inside a jam"},
        {"sink-outages", "N", "1", "sink outage windows per run (0 = none)"},
        {"sink-outage", "S", "",
         "sink outage window length (s, > 0); default horizon/10"},
        {"replications", "R", "4", "replications per cell (>= 1)"},
        {"seed", "N", "2008", "master RNG seed (non-negative)"},
    },
    RunNetsimFaults));

}  // namespace
}  // namespace wsn::scenario
