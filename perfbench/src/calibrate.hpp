// Host-speed calibration.
//
// The benchmark runs on shared hosts whose other tenants can slow the
// whole machine by up to 2x, for seconds to minutes at a time, with no
// steal time to show for it.  No statistic over the program's own timings
// removes that.  So a timer interrupts the benchmark's thread every 10 ms
// and runs a probe: a fixed piece of compute-bound work that does not
// depend on the library (churn of a binary heap that fits in the core's
// own caches, and some floating-point math), the same work every time,
// timed on the same thread and core as the work it interrupts, after the
// heap is brought back into the caches.  An interval's reference seconds are its host seconds, less the
// time the probes took inside it, scaled by how much slower than
// kProbeReferenceS the median probe ran during it.
//
// The probe follows the core's speed (clock rate, a busy sibling thread).
// It does not follow contention for the shared cache and memory, so the
// memory-bound share of a workload keeps some of the host's noise.
#pragma once

#include <cstddef>

namespace perfbench {

/// The probe time that defines a reference second: about what one probe
/// takes on a 2.1 GHz Xeon VM (GCC 12, Release) while its host is busy.
/// Only a scale; runs are compared on one machine, where it cancels.
inline constexpr double kProbeReferenceS = 100e-6;

/// Seconds of the monotonic clock.
double MonotonicSeconds();

/// What the probes saw in an interval.
struct ProbeWindow {
  double busy_s = 0.0;          ///< host seconds probes took inside it
  double median_probe_s = 0.0;  ///< median probe time in or around it
  std::size_t samples = 0;      ///< probes the median is taken over
};

/// Runs a probe every `period_s` seconds of wall time from now on, on the
/// calling thread (SIGALRM).  The first call allocates the probe's state.
void StartProbes(double period_s);

/// Stops the probes.
void StopProbes();

/// The probes in [start_s, end_s] (monotonic seconds).  An interval too
/// short for `min_samples` probes takes its median over the `min_samples`
/// probes nearest its middle.
ProbeWindow ProbesIn(double start_s, double end_s, std::size_t min_samples);

/// An interval of `host_s` host seconds, with `window` its probes, in
/// reference seconds.
double ReferenceSeconds(double host_s, const ProbeWindow& window);

}  // namespace perfbench
