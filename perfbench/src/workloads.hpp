// The benchmark's three workloads.  Each builds its inputs from the seed,
// calls the library's public entry points and checks what comes back.
//
//   flat-relay     des + netsim:       flat greedy routing at N = 30k
//   leach-cascade  netsim.cluster:     LEACH clustering at N = 40k
//   paper-sweep    core -> des/petri/markov/linalg: the Table 4 sweep
//
// See README.md for why each was chosen and which layer metric should
// move which end-to-end metric.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// What one operation (one netsim replication, or one full sweep whose
/// points are the checked units) produced.
struct OpResult {
  double wall_s = 0.0;          ///< host seconds of the timed call(s)
  double start_s = 0.0;         ///< when they started, MonotonicSeconds()
  std::uint64_t attempted = 0;  ///< checked units: replications or points
  std::uint64_t failed = 0;     ///< units whose output check failed
  std::vector<std::string> failures;  ///< one line per failed check
  /// Exact work counts (events, deaths, elections, ...).  A change that
  /// only speeds the simulator up must leave every one unchanged.
  std::map<std::string, std::uint64_t> counts;
  /// Per-layer numbers the traced run reports (counts from the report's
  /// metrics snapshot, the report's own stopwatches, model errors).
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the workload once and discards it; the caller times this to
  /// get the set-up cost.
  virtual void SetupOnce() = 0;

  /// Builds and runs one operation.  Set-up is excluded from wall_s.
  /// With a tracer, spans are recorded around each call into a layer and
  /// the library's metrics registry is switched on.
  virtual OpResult RunOnce(Tracer* tracer, std::uint64_t op) = 0;

  /// Describes the generated inputs for the result record (sizes,
  /// horizons, tolerances), as flat key/value text.
  virtual std::map<std::string, std::string> Describe() const = 0;
};

/// Builds the named workload's inputs from `seed`; throws
/// std::invalid_argument for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

/// Records failure `what` against `result`, counting `units` failed.
void Fail(OpResult& result, std::uint64_t units, const std::string& what);

}  // namespace perfbench
