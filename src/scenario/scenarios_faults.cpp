// Registered fault-injection / chaos scenario: a crash-rate x
// outage-length sweep of the deterministic fault engine, run flat and
// clustered on the same deployment, with every replication
// differentially verified against its oracle twin.  The wrapper starts
// from FaultDefaults(), maps --crash-rates / --outages onto the spec's
// two sweep axes and the other flags onto its knobs, and calls
// RunFaultStudy in scenario/studies.{hpp,cpp} — the renderer a
// `wsnctl run --file` faults spec also reaches.  The flags' help shows
// the FaultDefaults() values.
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
  return args.Has(flag) ? PositiveFlag(args, flag, 0.0) : 0.0;
}

/// `values` as the comma-separated list --crash-rates/--outages take.
std::string Csv(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    if (!out.empty()) out += ",";
    out += CompactNumber(v);
  }
  return out;
}

/// The flag table, its help showing `d`'s values.
std::vector<util::FlagSpec> FaultFlags(GenericSpec d) {
  return {
      {"nodes", "N", std::to_string(d.nodes), "deployment size (>= 2)"},
      {"spacing", "M", CompactNumber(d.spacing_m), "grid spacing (m, > 0)"},
      {"hop", "M", CompactNumber(d.hop_m), "max radio hop range (m, > 0)"},
      {"rate", "L", CompactNumber(d.rate_hz),
       "per-node report rate (1/s, > 0)"},
      {"horizon", "S", CompactNumber(d.horizon_s), "simulation horizon (s)"},
      {"crash-rates", "CSV", Csv(SweepValues(d, "faults.crash_rate")),
       "per-node transient crash rates to sweep (1/s)"},
      {"outages", "CSV", Csv(SweepValues(d, "faults.outage_s")),
       "mean outage durations to sweep (s)"},
      {"jam-windows", "N", std::to_string(d.jam_windows),
       "regional jam windows per run (0 = none)"},
      {"jam-radius", "M", CompactNumber(d.jam_radius_m), "jam disc radius (m)"},
      {"jam-duration", "S", "",
       "jam window length (s, > 0); default horizon/10"},
      {"jam-ploss", "P", CompactNumber(d.jam_p_loss),
       "extra per-attempt loss inside a jam"},
      {"sink-outages", "N", std::to_string(d.sink_outages),
       "sink outage windows per run (0 = none)"},
      {"sink-outage", "S", "",
       "sink outage window length (s, > 0); default horizon/10"},
      {"replications", "R", std::to_string(d.replications),
       "replications per cell (>= 1)"},
      {"seed", "N", std::to_string(d.seed), "master RNG seed (non-negative)"},
  };
}

ResultSet RunNetsimFaults(const ScenarioContext& ctx) {
  const util::CliArgs& args = ctx.Args();
  GenericSpec g = FaultDefaults();
  g.nodes = args.GetCount("nodes", g.nodes, 2);
  g.spacing_m = PositiveFlag(args, "spacing", g.spacing_m);
  g.hop_m = PositiveFlag(args, "hop", g.hop_m);
  g.rate_hz = PositiveFlag(args, "rate", g.rate_hz);
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
    FaultFlags(FaultDefaults()),
    RunNetsimFaults));

}  // namespace
}  // namespace wsn::scenario
