// ParallelExecutor: the one fan-out primitive behind every sweep and
// replication grid in this project.
//
// Any experiment that evaluates N independent jobs — analytic sweep
// points (core::SweepPowerDownThreshold), packet-level replications
// (netsim::RunReplications), CPU and Petri-net ensembles
// (des::RunCpuEnsemble, petri::SimulateSpnEnsemble), scenario grids —
// maps them through an executor.  The contract that makes results
// bit-reproducible:
//
//   * job i's result lands at index i of the output vector, regardless
//     of which thread ran it or when it finished;
//   * randomness comes only from the jump-separated stream handed to
//     job i (MapSeeded), which depends on (seed, i) alone — never on
//     thread identity or scheduling;
//   * if several jobs throw, the exception from the *lowest* index is
//     rethrown after all jobs finish, so failures are deterministic too.
//
// An executor is only a width: it holds no threads between calls.  Each
// parallel RunIndexed starts its threads, works alongside them on the
// calling thread, and joins them all before returning — so a process
// whose executor is idle is single-threaded, and fork() needs no care.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace wsn::util {

class ParallelExecutor {
 public:
  /// Run up to `threads` jobs at once (0 = hardware concurrency, min 1).
  /// `threads == 1` runs every job inline on the calling thread.
  explicit ParallelExecutor(std::size_t threads = 0);

  /// Maximum concurrent jobs (1 when serial).
  std::size_t ThreadCount() const noexcept { return width_; }

  /// Run fn(i) for i in [0, n); results in index order.  R must be
  /// default-constructible and movable.
  template <typename Fn>
  auto Map(std::size_t n, Fn&& fn) const
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    static_assert(!std::is_same_v<R, bool>,
                  "Map cannot return bool: std::vector<bool> packs bits, so "
                  "concurrent per-index writes would race; return char/int");
    std::vector<R> results(n);
    RunIndexed(n, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

  /// Run fn(i, rng_i) where rng_i is the i-th jump-separated stream of
  /// `seed` — the project-wide recipe for reproducible replications.
  template <typename Fn>
  auto MapSeeded(std::size_t n, std::uint64_t seed, Fn&& fn) const
      -> std::vector<std::invoke_result_t<Fn&, std::size_t, Rng>> {
    const Rng master(seed);
    return Map(n, [&](std::size_t i) { return fn(i, master.MakeStream(i)); });
  }

  /// Run fn(i) for side effects; same ordering/failure guarantees.
  /// Inline when serial or n <= 1; otherwise min(width, n) - 1 threads
  /// plus the caller pull indices from one shared counter.
  void RunIndexed(std::size_t n,
                  const std::function<void(std::size_t)>& fn) const;

 private:
  std::size_t width_;
};

}  // namespace wsn::util
