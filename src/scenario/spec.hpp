/// \file
/// Declarative scenario specs: a validated JSON description of a netsim
/// experiment — topology, node hardware, traffic, MAC, routing mode,
/// cluster knobs, fault injection, sweep axes, replication effort,
/// output columns and verification switches — parsed into the one
/// deployment description, GenericSpec (scenario/studies.hpp), and
/// rendered by the study it names.
///
/// The `study` key selects the defaults, the accepted keys and the
/// renderer.  One table-driven parser serves every study:
///
///   * "lifetime" / "throughput" / "clustered" / "heterogeneous" /
///     "faults" start from the named study's defaults and accept only
///     the subset of the generic schema that the registered scenario
///     exposes as flags (the faults study's `crash_rates` / `outages`
///     arrays are its two sweep axes); their renderers are the ones
///     `wsnctl run netsim-*` calls, so a committed preset is
///     byte-identical to its registry twin;
///   * "generic" opens the full knob surface (MAC loss/LPL, routing
///     update mode, stop conditions, scalar faults, node classes, up to
///     three sweep axes, selectable output columns) plus the `verify`
///     switches: `oracle` runs every replication twice (production
///     incremental paths vs full-recompute oracle) and hard-fails on
///     any field divergence; `analytic` cross-checks the simulated
///     first death against the closed-form estimator.  Packet
///     conservation is asserted on every generic replication
///     unconditionally.
///
/// Validation is strict and named: unknown keys, wrong types,
/// out-of-range values and conflicting knobs are rejected with the full
/// JSON path ("spec: unknown key 'colz' at $.topology (accepted: ...)")
/// before anything runs.  docs/scenarios.md is the schema reference.
#pragma once

#include <string>

#include "scenario/scenario.hpp"
#include "scenario/studies.hpp"

namespace wsn::scenario {

/// A parsed, fully validated scenario spec: the study it names and the
/// deployment it describes.
struct ScenarioSpec {
  std::string study;  ///< "lifetime" | "throughput" | "clustered" |
                      ///< "heterogeneous" | "faults" | "generic"
  GenericSpec generic;
};

/// Parse and validate a spec document.  Throws util::InvalidArgument
/// with a path-qualified message ("spec: ..." for schema violations,
/// "json: ..." for malformed JSON).
ScenarioSpec ParseScenarioSpec(const std::string& json_text);

/// Read `path` and parse it; errors are prefixed with the file path.
ScenarioSpec LoadScenarioSpecFile(const std::string& path);

/// Run a validated spec through its study's renderer.
ResultSet RunSpec(const ScenarioContext& ctx, const ScenarioSpec& spec);

}  // namespace wsn::scenario
