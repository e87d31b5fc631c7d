/// \file
/// Shared configuration helpers for the registered scenarios — the single
/// home of the paper's Table 2 parameters and the validated effort knobs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/params.hpp"
#include "netsim/replication.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"

namespace wsn::scenario {

/// Paper Table 2: 1000 s horizon, lambda = 1/s, mean service 0.1 s
/// (see DESIGN.md section 5 for the Table 2 reading).
core::CpuParams PaperParams();

/// The paper evaluates energy over the 1000 s simulated horizon.
inline constexpr double kEnergyHorizonSeconds = 1000.0;

/// Simulation effort knobs (--sim-time, --replications, --seed),
/// validated: replications >= 1 and a non-negative seed, rejected before
/// any unsigned cast.  Model-internal
/// replication threading is pinned to 1: scenario parallelism happens at
/// the sweep-grid level, through the scenario's ParallelExecutor.
core::EvalConfig EvalConfigFromArgs(const util::CliArgs& args);

/// Sweep resolution (--points), validated >= 2.
std::size_t SweepPointsFromArgs(const util::CliArgs& args);

/// FlagSpecs for the knobs above, shared by every sweep scenario.
std::vector<util::FlagSpec> CommonEvalFlags();

/// FlagSpec for --points.
util::FlagSpec PointsFlag();

struct GenericSpec;

/// Netsim replication effort flags (--replications >= 1, --seed >= 0)
/// over `g`'s defaults, shared by every netsim study wrapper.
void ApplyEffortFlags(const util::CliArgs& args, GenericSpec& g);

/// Compact number rendering for labels, error messages and the flag
/// help's defaults: integers without a decimal point, everything else
/// in %g form.
std::string CompactNumber(double v);

/// Value of the double flag `--flag`, or `fallback` when it is absent;
/// a present value must be > 0, else util::InvalidArgument
/// "flag --FLAG must be positive (got V)".
double PositiveFlag(const util::CliArgs& args, const char* flag,
                    double fallback);

/// "k/n reps" observation cell for replication summary tables.
std::string ObservedCell(std::size_t observed, std::size_t total);

/// "mean +- half_width" cell for a replication metric, or "n/a" when the
/// metric was observed in no replication (no death / no partition).
std::string MetricCell(const netsim::MetricSummary& metric, int precision);

/// Turn on the wsnctl observability session's switches (--metrics /
/// --trace) for one netsim run.  No-op when no session is active, so
/// the config keeps its zero-overhead defaults.
void ApplyObs(const ScenarioContext& ctx, netsim::NetSimConfig& config);

/// Contribute a finished replication batch's merged metrics snapshot and
/// concatenated trace to the session.  No-op when no session is active.
void ContributeObs(const ScenarioContext& ctx,
                   const netsim::ReplicationSummary& summary);

}  // namespace wsn::scenario
