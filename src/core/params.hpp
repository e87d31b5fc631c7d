// Shared parameterization of the paper's CPU model (Tables 2-3 defaults).
#pragma once

#include <cstddef>
#include <cstdint>

namespace wsn::core {

/// The four model parameters of the paper's CPU.
///
/// Note on paper Table 2: "Arrival Rate 1 per sec, Service Rate .1 per
/// sec" is read as arrival rate lambda = 1/s with *mean service time*
/// 0.1 s (mu = 10/s).  A literal service rate of 0.1/s would make the
/// queue unstable (rho = 10) and contradicts every figure; see DESIGN.md
/// section 5.
struct CpuParams {
  double arrival_rate = 1.0;          ///< lambda (jobs/s)
  double service_rate = 10.0;         ///< mu (jobs/s); mean service 1/mu
  double power_down_threshold = 0.1;  ///< T (s)
  double power_up_delay = 0.001;      ///< D (s)

  double MeanServiceTime() const noexcept { return 1.0 / service_rate; }
  double Rho() const noexcept { return arrival_rate / service_rate; }
};

/// How simulation-based models are run (paper Table 2: 1000 s horizon).
struct EvalConfig {
  double sim_time = 1000.0;       ///< horizon per replication (s)
  double warmup = 0.0;            ///< discarded prefix (s)
  std::size_t replications = 16;  ///< independent replications
  std::uint64_t seed = 42;        ///< master seed
  /// Executor width for one Evaluate's replications (0 = hardware
  /// concurrency, 1 = inline on the calling thread).
  std::size_t threads = 0;
  std::size_t det_stages = 20;    ///< Erlang stages for numerical solvers
};

}  // namespace wsn::core
