#include "scenario/common.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>

#include "obs/session.hpp"
#include "scenario/studies.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace wsn::scenario {

core::CpuParams PaperParams() {
  core::CpuParams p;
  p.arrival_rate = 1.0;
  p.service_rate = 10.0;
  p.power_down_threshold = 0.1;
  p.power_up_delay = 0.001;
  return p;
}

core::EvalConfig EvalConfigFromArgs(const util::CliArgs& args) {
  core::EvalConfig cfg;
  cfg.sim_time = args.GetDouble("sim-time", 1000.0);
  util::Require(cfg.sim_time > 0.0, "flag --sim-time must be positive");
  cfg.replications = args.GetCount("replications", 24, 1);
  cfg.seed = static_cast<std::uint64_t>(args.GetCount("seed", 2008));
  cfg.threads = 1;  // parallelism lives in the scenario's executor
  return cfg;
}

std::size_t SweepPointsFromArgs(const util::CliArgs& args) {
  return args.GetCount("points", 11, 2);
}

std::vector<util::FlagSpec> CommonEvalFlags() {
  return {
      {"sim-time", "S", "1000", "simulated horizon per replication (s)"},
      {"replications", "R", "24", "independent replications (>= 1)"},
      {"seed", "N", "2008", "master RNG seed (non-negative)"},
  };
}

util::FlagSpec PointsFlag() {
  return {"points", "K", "11", "sweep resolution over the PDT grid (>= 2)"};
}

void ApplyEffortFlags(const util::CliArgs& args, GenericSpec& g) {
  g.replications = args.GetCount("replications", g.replications, 1);
  g.seed = static_cast<std::uint64_t>(args.GetCount("seed", g.seed));
}

std::string CompactNumber(double v) {
  char buf[32];
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.0e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%g", v);
  }
  return buf;
}

double PositiveFlag(const util::CliArgs& args, const char* flag,
                    double fallback) {
  const double v = args.GetDouble(flag, fallback);
  util::Require(v > 0.0, std::string("flag --") + flag +
                             " must be positive (got " + CompactNumber(v) +
                             ")");
  return v;
}

std::string ObservedCell(std::size_t observed, std::size_t total) {
  return std::to_string(observed) + "/" + std::to_string(total) + " reps";
}

std::string MetricCell(const netsim::MetricSummary& metric, int precision) {
  if (metric.observed == 0) return "n/a";
  return util::FormatInterval(metric.ci.mean, metric.ci.half_width, precision);
}

void ApplyObs(const ScenarioContext& ctx, netsim::NetSimConfig& config) {
  if (ctx.obs == nullptr) return;
  config.obs = ctx.obs->MakeConfig();
}

void ContributeObs(const ScenarioContext& ctx,
                   const netsim::ReplicationSummary& summary) {
  if (ctx.obs == nullptr) return;
  ctx.obs->Contribute(summary.metrics, summary.trace);
}

}  // namespace wsn::scenario
