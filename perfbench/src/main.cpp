// The perfbench binary: one workload, one seed, one process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--describe GIT_DESCRIBE] [--trace-out FILE]
//   perfbench --self-test
//
// It runs one operation in the fresh process and reads the peak memory,
// starts the host-speed probes (calibrate.hpp), then runs more operations
// one after another (closed loop, one client, one thread) until S seconds
// have passed, checking every operation's output and timing the
// workload's set-up a few times after each.  Times are reported in the
// probes' reference seconds.  With --trace 0 it reports the end-to-end
// metrics; with --trace 1 it alternates untraced and traced operations
// and reports the per-layer metrics taken from the traced ones.  The next-to-last stdout line is a "record" with the
// machine stamp, the inputs, the exact work counts and every sample; the
// last line is the result object.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "spans.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace util = wsn::util;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// ------------------------------------------------------------ metrics

struct Metric {
  const char* name;
  const char* unit;
};

const std::vector<Metric>& EndToEnd() {
  static const std::vector<Metric> m = {
      {"wall_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};
  return m;
}

/// Per-layer metrics of the traced run, in README.md's table order.
const std::vector<Metric>& PerLayer() {
  static const std::vector<Metric> m = {
      {"des.events_fired", "count"},
      {"des.events_scheduled", "count"},
      {"des.events_cancelled", "count"},
      {"des.live_hwm", "count"},
      {"des.events_per_s", "1/s"},
      {"netsim.construct_s", "s"},
      {"netsim.run_s", "s"},
      {"netsim.packets_generated", "count"},
      {"netsim.packets_forwarded", "count"},
      {"netsim.delivery_ratio", "ratio"},
      {"netsim.queue_overflow_drops", "count"},
      {"netsim.queue_pool_slots", "count"},
      {"netsim.deaths", "count"},
      {"routing.repairs", "count"},
      {"routing.repair_s", "s"},
      {"cluster.elections", "count"},
      {"cluster.rounds", "count"},
      {"cluster.election_s", "s"},
      {"cluster.assign_s", "s"},
      {"cluster.repair_share", "ratio"},
      {"cluster.cascade_ratio", "ratio"},
      {"core.simulation.eval_s", "s"},
      {"core.petri_net.eval_s", "s"},
      {"core.markov.eval_s", "s"},
      {"core.dspn_exact.eval_s", "s"},
      {"core.eval_share", "ratio"},
      {"core.evaluations", "count"},
      {"core.sim_error_pp", "pp"},
      {"pn_error_pp", "pp"},
      {"trace.overhead_s", "s"},
  };
  return m;
}

/// Span name -> per-layer metric holding the span's total time.
const std::map<std::string, std::string>& SpanMetrics() {
  static const std::map<std::string, std::string> m = {
      {"netsim.construct", "netsim.construct_s"},
      {"netsim.run", "netsim.run_s"},
      {"core.simulation.eval", "core.simulation.eval_s"},
      {"core.petri_net.eval", "core.petri_net.eval_s"},
      {"core.markov.eval", "core.markov.eval_s"},
      {"core.dspn_exact.eval", "core.dspn_exact.eval_s"},
  };
  return m;
}

// ---------------------------------------------------------- the run

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string describe = "unknown";
  std::string trace_out;
};

/// Everything one run measured, before it is turned into output.
struct RunTotals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::uint64_t> counts;  ///< of the first operation
  /// The first operation's model errors (paper-sweep), traced or not.
  std::map<std::string, double> accuracy;
  double peak_rss_mb = 0.0;  ///< after the first operation
  /// Reference seconds (see calibrate.hpp) of each set-up and of each
  /// untraced and traced operation after the first.
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> traced_wall_s;
  /// The same intervals in host seconds, every operation included.
  std::vector<double> host_setup_s;
  std::vector<double> host_wall_s;
  /// Median probe time of each timed interval, in the order they ran.
  std::vector<double> probe_s;
  /// Per-layer value of each traced operation, by metric name.
  std::map<std::string, std::vector<double>> layer;
};

/// Folds one operation into the totals.  Every operation of a run repeats
/// the same seeded work, so its counts must equal the first operation's;
/// a mismatch fails the operation.  An untimed operation adds no time
/// sample.
void Account(RunTotals& totals, OpResult r, bool traced, bool timed = true) {
  if (totals.attempted == 0) {
    totals.counts = r.counts;
    for (const auto& [name, value] : r.layer) {
      if (name.ends_with("_error_pp")) {
        totals.accuracy[name] = value;
      }
    }
  } else if (r.counts != totals.counts) {
    Fail(r, r.attempted, "work counts differ from the run's first operation");
  }
  totals.attempted += r.attempted;
  totals.failed += r.failed;
  for (std::string& f : r.failures) {
    if (totals.failures.size() < 20) totals.failures.push_back(std::move(f));
  }
  if (timed) (traced ? totals.traced_wall_s : totals.wall_s).push_back(r.wall_s);
  if (traced) {
    for (const auto& [name, value] : r.layer) totals.layer[name].push_back(value);
  }
}

/// Adds the traced operation `op`'s span totals to its layer values.
void AddSpanTotals(const Tracer& tracer, std::uint64_t op, OpResult& r) {
  // The operation's spans, with parents re-pointed into the sub-list.
  std::vector<Span> mine;
  std::map<int, int> index;
  for (std::size_t i = 0; i < tracer.Spans().size(); ++i) {
    const Span& s = tracer.Spans()[i];
    if (s.op != op) continue;
    index[static_cast<int>(i)] = static_cast<int>(mine.size());
    mine.push_back(s);
    const auto it = index.find(s.parent);
    mine.back().parent = it == index.end() ? -1 : it->second;
  }
  const std::map<std::string, SpanTotals> self = SelfTimes(mine);
  double eval_s = 0.0;
  for (const auto& [span, metric] : SpanMetrics()) {
    const auto it = self.find(span);
    const double self_s = it == self.end() ? 0.0 : it->second.self_s;
    r.layer[metric] = self_s;
    if (span.rfind("core.", 0) == 0) eval_s += self_s;
  }
  const double run_s = r.layer["netsim.run_s"];
  r.layer["des.events_per_s"] =
      run_s > 0.0 ? r.layer["des.events_fired"] / run_s : 0.0;
  r.layer["cluster.repair_share"] =
      run_s > 0.0 ? r.layer["routing.repair_s"] / run_s : 0.0;
  // Only the sweep's evaluations are timed inside its wall_s.
  r.layer["core.eval_share"] =
      r.counts.count("evaluations") && r.wall_s > 0.0 ? eval_s / r.wall_s : 0.0;
}

/// Peak resident memory of this process image.  VmHWM starts afresh at
/// exec, unlike getrusage's ru_maxrss, which keeps the launching
/// process's peak.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Probe period and the fewest probes an interval's speed is taken over.
constexpr double kProbePeriodS = 0.01;
constexpr std::size_t kMinProbes = 8;

RunTotals Measure(const Options& opt, Workload& workload, Tracer& tracer) {
  RunTotals totals;
  // Host seconds starting at `start_s` -> reference seconds.
  const auto reference = [&](double start_s, double host_s) {
    const ProbeWindow w = ProbesIn(start_s, start_s + host_s, kMinProbes);
    totals.probe_s.push_back(w.median_probe_s);
    return ReferenceSeconds(host_s, w);
  };
  const auto run_op = [&](std::uint64_t op, bool timed) {
    // A traced run alternates untraced and traced operations, so that the
    // overhead compares like with like.
    const bool traced = opt.trace && op % 2 == 1;
    OpResult r;
    try {
      r = workload.RunOnce(traced ? &tracer : nullptr, op);
      if (traced) AddSpanTotals(tracer, op, r);
    } catch (const std::exception& e) {
      r = OpResult{};
      r.attempted = 1;
      Fail(r, 1, std::string("operation threw: ") + e.what());
    }
    totals.host_wall_s.push_back(r.wall_s);
    // An operation that threw has no time to sample.
    const bool sampled = timed && r.wall_s > 0.0;
    if (sampled) r.wall_s = reference(r.start_s, r.wall_s);
    Account(totals, std::move(r), traced, sampled);
  };

  // The first operation runs in the fresh process, before anything else
  // (the probes' working set included), so the peak memory read after it
  // is that of one operation's set-up and run.  Later operations reuse a
  // heap whose fragmentation depends on how many ran, which would make
  // the peak drift with machine speed.  It is not timed.
  const double start = MonotonicSeconds();
  run_op(0, false);
  totals.peak_rss_mb = PeakRssMb();
  StartProbes(kProbePeriodS);

  // Set-up samples, each a batch long enough (>= 20 ms) for the clock to
  // resolve it, reported per set-up.  A few are taken after every
  // operation, so that their median spans the whole run.
  constexpr int kSetupSamplesPerOp = 5;
  constexpr double kSetupBatchS = 0.02;
  const auto time_setups = [&] {
    for (int k = 0; k < kSetupSamplesPerOp; ++k) {
      int reps = 0;
      const double t0 = MonotonicSeconds();
      double elapsed = 0.0;
      do {
        workload.SetupOnce();
        ++reps;
        elapsed = MonotonicSeconds() - t0;
      } while (elapsed < kSetupBatchS);
      totals.host_setup_s.push_back(elapsed / reps);
      totals.setup_s.push_back(reference(t0, elapsed) / reps);
    }
  };
  time_setups();

  // More operations, one at a time, until the measuring time is used up;
  // a traced run needs at least one traced and one untraced timed one.
  const std::uint64_t min_ops = opt.trace ? 3 : 2;
  for (std::uint64_t op = 1;
       op < min_ops || MonotonicSeconds() - start < opt.seconds; ++op) {
    run_op(op, true);
    time_setups();
  }
  StopProbes();
  return totals;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::map<std::string, std::string> MachineStamp(const Options& opt) {
  return {{"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
          {"cpu_model", CpuModel()},
          {"compiler", Compiler()},
          {"build_type", PERFBENCH_BUILD_TYPE},
          {"git_describe", opt.describe}};
}

void WriteSpans(const std::string& path, const Tracer& tracer) {
  util::JsonWriter w(1);
  w.BeginObject().Key("spans").BeginArray();
  for (const Span& s : tracer.Spans()) {
    w.BeginObject()
        .Key("name").String(s.name)
        .Key("start_s").Number(s.start_s)
        .Key("end_s").Number(s.end_s)
        .Key("parent").Int(s.parent)
        .Key("op").UInt(s.op)
        .EndObject();
  }
  w.EndArray().Key("self_times").BeginObject();
  for (const auto& [name, t] : SelfTimes(tracer.Spans())) {
    w.Key(name).BeginObject()
        .Key("count").UInt(t.count)
        .Key("total_s").Number(t.total_s)
        .Key("self_s").Number(t.self_s)
        .EndObject();
  }
  w.EndObject().EndObject();
  std::ofstream out(path);
  out << w.Str() << "\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

template <typename Map, typename Put>
void WriteMap(util::JsonWriter& w, const std::string& key, const Map& m,
              Put put) {
  w.Key(key).BeginObject();
  for (const auto& [k, v] : m) put(w.Key(k), v);
  w.EndObject();
}

void WriteArray(util::JsonWriter& w, const std::string& key,
                const std::vector<double>& v) {
  w.Key(key).BeginArray();
  for (double x : v) w.Number(x);
  w.EndArray();
}

int Run(const Options& opt) {
  std::unique_ptr<Workload> workload = MakeWorkload(opt.workload, opt.seed);
  Tracer tracer;
  RunTotals t = Measure(opt, *workload, tracer);

  std::map<std::string, double> values;
  if (!opt.trace) {
    values = {{"wall_s", Median(t.wall_s)},
              {"setup_s", Median(t.setup_s)},
              {"peak_rss_mb", t.peak_rss_mb}};
  } else {
    for (const Metric& m : PerLayer()) {
      const auto it = t.layer.find(m.name);
      values[m.name] = it == t.layer.end() ? 0.0 : Median(it->second);
    }
    values["trace.overhead_s"] = Median(t.traced_wall_s) - Median(t.wall_s);
    if (!opt.trace_out.empty()) WriteSpans(opt.trace_out, tracer);
  }
  bool finite = true;
  for (const auto& [name, v] : values) finite = finite && std::isfinite(v);

  const auto str = [](util::JsonWriter& w, const std::string& v) { w.String(v); };
  const auto num = [](util::JsonWriter& w, double v) { w.Number(v); };
  util::JsonWriter record(0);
  record.BeginObject()
      .Key("workload").String(opt.workload)
      .Key("seed").UInt(opt.seed)
      .Key("trace").Bool(opt.trace)
      .Key("seconds").Number(opt.seconds);
  WriteMap(record, "machine", MachineStamp(opt), str);
  WriteMap(record, "inputs", workload->Describe(), str);
  WriteMap(record, "counts", t.counts,
           [](util::JsonWriter& w, std::uint64_t v) { w.UInt(v); });
  WriteMap(record, "accuracy", t.accuracy, num);
  WriteArray(record, "setup_s", t.setup_s);
  WriteArray(record, "wall_s", t.wall_s);
  WriteArray(record, "traced_wall_s", t.traced_wall_s);
  WriteArray(record, "host_setup_s", t.host_setup_s);
  WriteArray(record, "host_wall_s", t.host_wall_s);
  WriteArray(record, "probe_s", t.probe_s);
  WriteMap(record, "values", values, num);
  record.Key("failures").BeginArray();
  for (const std::string& f : t.failures) record.String(f);
  record.EndArray().EndObject();

  util::JsonWriter result(0);
  result.BeginObject()
      .Key("correct").Bool(t.failed == 0 && finite)
      .Key("attempted").UInt(t.attempted)
      .Key("failed").UInt(t.failed)
      .Key("metrics").BeginObject();
  for (const Metric& m : opt.trace ? PerLayer() : EndToEnd()) {
    result.Key(m.name).BeginObject()
        .Key("value").Number(values[m.name])
        .Key("unit").String(m.unit)
        .EndObject();
  }
  result.EndObject().EndObject();

  std::cout << "record " << record.Str() << "\n" << result.Str() << std::endl;
  return 0;
}

// ---------------------------------------------------------- self-test

/// Checks the two pieces of arithmetic the results rest on: a failed
/// check is counted as a failed operation, and span self time subtracts
/// exactly the part of a span its children cover.
int SelfTest() {
  int bad = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "self-test failed: " << what << "\n";
      ++bad;
    }
  };

  // Failure accounting: a forced failure in one of three operations.
  RunTotals totals;
  for (int i = 0; i < 3; ++i) {
    OpResult r;
    r.attempted = 11;
    r.counts = {{"events", 5}};
    if (i == 1) Fail(r, 1, "forced");
    Account(totals, r, false);
  }
  expect(totals.attempted == 33 && totals.failed == 1,
         "a forced check failure counts as one failed operation");
  OpResult drift;
  drift.attempted = 1;
  drift.counts = {{"events", 6}};
  Account(totals, drift, false);
  expect(totals.failed == 2, "a run whose counts drift fails the operation");
  OpResult over;
  over.attempted = 2;
  Fail(over, 5, "over");
  expect(over.failed == 2, "failures never exceed the units attempted");

  // Span self time: root [0, 10] with children [1, 3] and [2, 6]
  // (overlapping: union 5), a child hanging past the root's end [9, 12]
  // (1 inside), and a grandchild [4, 5] inside the second child.
  Tracer tracer;
  const int root = tracer.Add("root", 0.0, 10.0, -1, 7);
  tracer.Add("a", 1.0, 3.0, root, 7);
  const int b = tracer.Add("b", 2.0, 6.0, root, 7);
  tracer.Add("c", 4.0, 5.0, b, 7);
  tracer.Add("d", 9.0, 12.0, root, 7);
  const std::map<std::string, SpanTotals> self = SelfTimes(tracer.Spans());
  const auto near = [](double x, double y) { return std::abs(x - y) < 1e-12; };
  expect(near(self.at("root").self_s, 4.0), "root self = 10 - 5 - 1");
  expect(near(self.at("b").self_s, 3.0), "child self = 4 - 1");
  expect(near(self.at("c").self_s, 1.0), "leaf self = its duration");
  expect(near(self.at("d").total_s, 3.0), "total ignores the parent");

  // Reference seconds: 1 s of host time, 10 ms of it in probes that ran
  // at half the reference speed, is 0.99 s / 2.
  ProbeWindow w;
  w.busy_s = 0.01;
  w.median_probe_s = 2 * kProbeReferenceS;
  w.samples = 8;
  expect(near(ReferenceSeconds(1.0, w), 0.495),
         "reference seconds drop the probes' time and rescale the rest");
  bool unprobed = false;
  try {
    ReferenceSeconds(1.0, ProbeWindow{});
  } catch (const std::logic_error&) {
    unprobed = true;
  }
  expect(unprobed, "an interval with no probe near it is rejected");

  // Live spans nest through Begin/End.
  const int outer = tracer.Begin("outer", 8);
  const int inner = tracer.Begin("inner", 8);
  tracer.End(inner);
  tracer.End(outer);
  expect(tracer.Spans()[inner].parent == outer, "Begin nests under open span");
  bool threw = false;
  const int x = tracer.Begin("x", 9);
  tracer.Begin("y", 9);
  try {
    tracer.End(x);
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "closing an outer span first is rejected");

  std::cout << (bad == 0 ? "self-test passed" : "self-test FAILED") << "\n";
  return bad == 0 ? 0 : 1;
}

std::uint64_t ParseU64(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long out = 0;
  try {
    out = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (v.empty() || used != v.size() || v[0] == '-') {
    throw std::invalid_argument(flag + ": '" + v + "' is not a whole number");
  }
  return out;
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = ParseU64(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(ParseU64(flag, v));
      have_seconds = opt.seconds >= 1 && opt.seconds <= 600;
      if (!have_seconds) throw std::invalid_argument("--seconds: 1..600");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace: 0 or 1");
      opt.trace = v == "1";
    } else if (flag == "--describe") {
      opt.describe = v;
    } else if (flag == "--trace-out") {
      opt.trace_out = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    throw std::invalid_argument("--workload, --seed and --seconds are required");
  }
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    if (argc == 2 && std::string(argv[1]) == "--self-test") {
      return perfbench::SelfTest();
    }
    return perfbench::Run(perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
