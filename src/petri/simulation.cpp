#include "petri/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "petri/enabling.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wsn::petri {

using util::ModelError;
using util::Require;

namespace {

constexpr double kUnscheduled = std::numeric_limits<double>::infinity();

/// Checks shared by one replication and an ensemble: done once per
/// call, before any net is compiled or any replication runs.
void CheckConfig(const PetriNet& net, const SimulationConfig& config) {
  Require(config.horizon > 0.0, "horizon must be positive");
  Require(config.warmup >= 0.0 && config.warmup < config.horizon,
          "warmup must lie inside the horizon");
  net.Validate();
}

class TokenGame {
 public:
  TokenGame(const CompiledNet& net, const SimulationConfig& config)
      : net_(net), config_(config), rng_(config.seed) {}

  SimulationResult Run() {
    const std::size_t np = net_.Net().PlaceCount();
    const std::size_t nt = net_.Net().TransitionCount();
    SimulationResult result;
    result.mean_tokens.assign(np, 0.0);
    result.mean_tokens_sq.assign(np, 0.0);
    result.firings.assign(nt, 0);
    result.observed_time = config_.horizon - config_.warmup;

    Marking m = net_.Net().InitialMarking();
    double now = 0.0;
    ResolveVanishing(m, now, result);

    // Absolute fire times per timed transition; infinity = not scheduled.
    std::vector<double> fire_at(nt, kUnscheduled);
    RefreshSchedule(m, now, fire_at, /*fired=*/nt);

    for (;;) {
      if (config_.max_firings != 0 &&
          result.total_firings >= config_.max_firings) {
        break;
      }
      // Earliest scheduled timed transition; ties break by lowest id for
      // determinism.
      std::size_t next_t = nt;
      double next_time = kUnscheduled;
      for (const TransitionId t : net_.Timed()) {
        if (fire_at[t] < next_time) {
          next_time = fire_at[t];
          next_t = t;
        }
      }
      if (next_t == nt) {
        // Dead tangible marking: nothing can ever fire again.
        result.deadlocked = true;
        AccumulateTokens(m, now, config_.horizon, result);
        now = config_.horizon;
        break;
      }
      if (next_time > config_.horizon) {
        AccumulateTokens(m, now, config_.horizon, result);
        now = config_.horizon;
        break;
      }

      AccumulateTokens(m, now, next_time, result);
      now = next_time;
      net_.Fire(next_t, m);
      CountFiring(next_t, now, result);
      fire_at[next_t] = kUnscheduled;
      ResolveVanishing(m, now, result);
      RefreshSchedule(m, now, fire_at, next_t);
    }

    const double window = result.observed_time;
    for (std::size_t p = 0; p < np; ++p) {
      result.mean_tokens[p] /= window;
      result.mean_tokens_sq[p] /= window;
    }
    result.throughput.assign(nt, 0.0);
    for (std::size_t t = 0; t < nt; ++t) {
      result.throughput[t] =
          static_cast<double>(result.firings[t]) / window;
    }
    result.final_marking = std::move(m);
    return result;
  }

 private:
  void CountFiring(TransitionId t, double now, SimulationResult& result) {
    ++result.total_firings;
    if (now >= config_.warmup && now <= config_.horizon) {
      ++result.firings[t];
    }
  }

  void AccumulateTokens(const Marking& m, double from, double to,
                        SimulationResult& result) const {
    const double lo = std::max(from, config_.warmup);
    const double hi = std::min(to, config_.horizon);
    if (hi <= lo) return;
    const double dt = hi - lo;
    for (std::size_t p = 0; p < m.size(); ++p) {
      const double tokens = static_cast<double>(m[p]);
      result.mean_tokens[p] += tokens * dt;
      result.mean_tokens_sq[p] += tokens * tokens * dt;
    }
  }

  /// Fire immediate transitions (highest priority first, weighted among
  /// equals) until the marking is tangible.
  void ResolveVanishing(Marking& m, double now, SimulationResult& result) {
    std::uint64_t chain = 0;
    for (;;) {
      net_.ImmediateConflictSet(m, conflict_);
      if (conflict_.empty()) return;
      if (++chain > config_.max_vanishing_chain) {
        throw ModelError(
            "immediate-transition livelock: vanishing chain exceeded " +
            std::to_string(config_.max_vanishing_chain) + " firings");
      }
      const TransitionId t = SampleByWeight(net_.Net(), conflict_, rng_);
      net_.Fire(t, m);
      CountFiring(t, now, result);
    }
  }

  /// Enabling-memory schedule maintenance at a tangible marking:
  ///   - newly enabled (or just-fired and re-enabled) transitions sample a
  ///     fresh delay;
  ///   - transitions that stay enabled keep their timers;
  ///   - disabled transitions are descheduled.
  void RefreshSchedule(const Marking& m, double now,
                       std::vector<double>& fire_at, std::size_t fired) {
    for (const TransitionId t : net_.Timed()) {
      if (!net_.Enabled(t, m)) {
        fire_at[t] = kUnscheduled;  // enabling memory: timer discarded
        continue;
      }
      if (fire_at[t] == kUnscheduled || t == fired) {
        fire_at[t] = now + net_.Delay(t).Sample(rng_);
      }
    }
  }

  const CompiledNet& net_;
  const SimulationConfig& config_;
  util::Rng rng_;
  std::vector<TransitionId> conflict_;  ///< reused by ResolveVanishing
};

}  // namespace

SimulationResult SimulateSpn(const PetriNet& net,
                             const SimulationConfig& config) {
  CheckConfig(net, config);
  const CompiledNet compiled(net);
  return TokenGame(compiled, config).Run();
}

EnsembleResult SimulateSpnEnsemble(const PetriNet& net,
                                   const SimulationConfig& config,
                                   std::size_t replications,
                                   util::ParallelExecutor& executor) {
  Require(replications >= 1, "need at least one replication");
  CheckConfig(net, config);
  const CompiledNet compiled(net);
  std::vector<SimulationResult> results(replications);
  util::Rng base(config.seed);
  std::vector<std::uint64_t> seeds(replications);
  for (auto& s : seeds) s = base();

  executor.RunIndexed(replications, [&](std::size_t r) {
    SimulationConfig local = config;
    local.seed = seeds[r];
    results[r] = TokenGame(compiled, local).Run();
  });

  EnsembleResult agg;
  agg.replications = replications;
  agg.mean_tokens.assign(net.PlaceCount(), {});
  agg.throughput.assign(net.TransitionCount(), {});
  for (const SimulationResult& r : results) {
    for (std::size_t p = 0; p < net.PlaceCount(); ++p) {
      agg.mean_tokens[p].Add(r.mean_tokens[p]);
    }
    for (std::size_t t = 0; t < net.TransitionCount(); ++t) {
      agg.throughput[t].Add(r.throughput[t]);
    }
  }
  return agg;
}

}  // namespace wsn::petri
