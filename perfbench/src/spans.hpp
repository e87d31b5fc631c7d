// In-memory span recorder for the benchmark's traced run.
//
// The benchmark opens a span around each call it makes into a library
// layer (simulator construction, Run(), each model Evaluate).  A span has a
// name, a start and end on the steady clock, the span that was open when
// it began (its parent) and the operation it belongs to: every span of
// one netsim replication or one sweep shares that id.  Nothing is written
// while the workload runs; the caller folds the spans into per-name self
// times at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer's epoch
  double end_s = 0.0;
  int parent = -1;       ///< index into the span list, -1 for a root
  std::uint64_t op = 0;  ///< operation id shared by the operation's spans
};

/// Total and self time of all spans with one name.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< total minus the time covered by child spans
};

class Tracer {
 public:
  Tracer();

  /// Opens a span under the innermost open span and returns its index.
  int Begin(const std::string& name, std::uint64_t op);
  /// Closes span `id`, which must be the innermost open span.
  void End(int id);

  /// Appends a finished span with explicit times (used by the self-test
  /// and by callers that time a region themselves).
  int Add(const std::string& name, double start_s, double end_s, int parent,
          std::uint64_t op);

  const std::vector<Span>& Spans() const noexcept { return spans_; }

 private:
  double Now() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Per-name count, total and self time.  A span's self time is its
/// duration minus the union of its children's intervals, each clipped to
/// the parent, so overlapping or overhanging children are not counted
/// twice.
std::map<std::string, SpanTotals> SelfTimes(const std::vector<Span>& spans);

/// Opens a span on construction and closes it on destruction; a null
/// tracer makes it a no-op that never reads the clock.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, std::uint64_t op)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
