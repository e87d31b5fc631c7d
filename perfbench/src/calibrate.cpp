#include "calibrate.hpp"

#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <ctime>
#include <functional>
#include <stdexcept>
#include <vector>

namespace perfbench {
namespace {

// A heap small enough for a core's own caches.
constexpr std::size_t kHeapSize = 1024;
constexpr int kProbeIterations = 1000;
// Room for a probe every 10 ms of a twenty-minute run.
constexpr std::size_t kMaxSamples = 1u << 17;

struct Sample {
  double start_s;
  double busy_s;   ///< the whole interruption
  double probe_s;  ///< the timed work
};

std::uint64_t SplitMix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Everything a probe touches, allocated before the timer starts: the
/// signal handler itself never allocates.
struct ProbeState {
  std::vector<std::uint64_t> initial;  ///< the heap every probe starts from
  std::vector<std::uint64_t> heap;
  std::vector<Sample> samples;
  std::atomic<std::size_t> count{0};
  std::uint64_t rng = 0;
  double acc = 0.0;

  ProbeState() : initial(kHeapSize), heap(kHeapSize), samples(kMaxSamples) {
    // Keys spread over a few times the largest increment, so that pushes
    // land all over the heap from the first pop on.
    std::uint64_t s = 12345;
    for (std::uint64_t& h : initial) h = SplitMix(s) & 0x3FFFF;
    std::make_heap(initial.begin(), initial.end(), std::greater<>());
    for (Sample& sample : samples) sample = {0.0, 0.0, 0.0};  // touch the pages
  }

  /// Resets the heap and the random stream, so that every probe does the
  /// same work.  Copying the heap also brings it back into the core's
  /// caches, which the interrupted work has had to itself, so that the
  /// probe's time does not depend on how much memory that work touches.
  void Reset() {
    std::copy(initial.begin(), initial.end(), heap.begin());
    rng = 67890;
  }

  /// The fixed work: heap churn in the core's own caches, some math.
  void Probe() {
    for (int i = 0; i < kProbeIterations; ++i) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const std::uint64_t t = heap.back();
      heap.back() = t + (SplitMix(rng) & 0xFFFF);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
      if ((i & 3) == 0) {
        acc = 0.999 * acc + std::log1p(static_cast<double>(t & 0xFFF));
      }
    }
  }
};

ProbeState* g_state = nullptr;

void OnTick(int) {
  const int saved_errno = errno;
  ProbeState& st = *g_state;
  const std::size_t n = st.count.load(std::memory_order_relaxed);
  if (n < kMaxSamples) {
    const double t0 = MonotonicSeconds();
    st.Reset();
    const double t1 = MonotonicSeconds();
    st.Probe();
    const double t2 = MonotonicSeconds();
    st.samples[n] = {t0, t2 - t0, t2 - t1};
    st.count.store(n + 1, std::memory_order_release);
  }
  errno = saved_errno;
}

void SetTimer(double period_s) {
  itimerval tv{};
  const auto us = static_cast<long>(std::lround(period_s * 1e6));
  tv.it_interval.tv_sec = us / 1000000;
  tv.it_interval.tv_usec = us % 1000000;
  tv.it_value = tv.it_interval;
  if (setitimer(ITIMER_REAL, &tv, nullptr) != 0) {
    throw std::runtime_error("setitimer failed");
  }
}

}  // namespace

double MonotonicSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void StartProbes(double period_s) {
  if (g_state == nullptr) g_state = new ProbeState();
  struct sigaction sa {};
  sa.sa_handler = OnTick;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGALRM, &sa, nullptr) != 0) {
    throw std::runtime_error("sigaction failed");
  }
  SetTimer(period_s);
}

void StopProbes() {
  // A disarmed timer sends no more signals; a probe that was running has
  // finished by the time this thread, which it interrupted, gets here.
  SetTimer(0.0);
}

ProbeWindow ProbesIn(double start_s, double end_s, std::size_t min_samples) {
  ProbeWindow w;
  if (g_state == nullptr) return w;
  const std::size_t n = g_state->count.load(std::memory_order_acquire);
  const Sample* first = g_state->samples.data();
  const Sample* last = first + n;
  const auto by_start = [](const Sample& s, double t) { return s.start_s < t; };
  const Sample* lo = std::lower_bound(first, last, start_s, by_start);
  const Sample* hi = std::lower_bound(lo, last, end_s, by_start);
  for (const Sample* s = lo; s != hi; ++s) w.busy_s += s->busy_s;
  if (static_cast<std::size_t>(hi - lo) < min_samples) {
    // Too few inside: widen around the middle, nearest probe first.
    const double mid = 0.5 * (start_s + end_s);
    lo = hi = std::lower_bound(first, last, mid, by_start);
    while (static_cast<std::size_t>(hi - lo) < min_samples &&
           (lo != first || hi != last)) {
      const bool left = hi == last ||
                        (lo != first && mid - (lo - 1)->start_s < hi->start_s - mid);
      if (left) {
        --lo;
      } else {
        ++hi;
      }
    }
  }
  // The median, not the mean: a probe that the host preempted for a
  // millisecond would otherwise move a short interval's speed by half.
  std::vector<double> times;
  for (const Sample* s = lo; s != hi; ++s) times.push_back(s->probe_s);
  w.samples = times.size();
  if (!times.empty()) {
    const auto mid = times.begin() + static_cast<std::ptrdiff_t>(times.size() / 2);
    std::nth_element(times.begin(), mid, times.end());
    w.median_probe_s = *mid;
  }
  return w;
}

double ReferenceSeconds(double host_s, const ProbeWindow& window) {
  if (window.samples == 0 || window.median_probe_s <= 0.0) {
    throw std::logic_error("no probe ran near a timed interval");
  }
  return (host_s - window.busy_s) * kProbeReferenceS / window.median_probe_s;
}

}  // namespace perfbench
