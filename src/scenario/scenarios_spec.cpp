// netsim-fuzz: the standing config-fuzz differential harness (ISSUE 9).
// Generates seed-deterministic random *valid* generic specs, serializes
// each through util::JsonWriter, round-trips it through the real spec
// parser (util::ParseJson + ParseScenarioSpec — the same path `wsnctl
// run --file` takes), and interprets it twice: once on the scenario
// executor and once on a single-threaded twin.  Every config asserts
//
//   * packet conservation on every replication (built into the generic
//     interpreter),
//   * field-for-field equality against the full-recompute oracle twin
//     (shapes that exercise the incremental repair paths),
//   * convergence of the simulated first death to the closed-form
//     analytic estimator (the lossless flat steady shape), and
//   * byte-identical rendered output across thread counts.
//
// Everything is deterministic per (seed, index): any failure reproduces
// with the printed one-line `--seed=S --start=I --count=1` invocation.
#include <string>
#include <utility>
#include <vector>

#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"
#include "util/error.hpp"
#include "util/executor.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/subproc.hpp"
#include "util/table.hpp"

namespace wsn::scenario {
namespace {

double UniformIn(util::Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * util::UniformDouble(rng);
}

std::size_t SizeIn(util::Rng& rng, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(util::UniformBelow(rng, hi - lo + 1));
}

bool Coin(util::Rng& rng) { return util::UniformBelow(rng, 2) == 0; }

/// The five fuzzed shapes.  Each exercises a different verification
/// surface; together they cover flat/clustered x fault-free/faulty plus
/// the analytic anchor.
enum class Shape : std::size_t {
  kFlat = 0,          ///< flat grid, optional loss/burstiness; oracle
  kFlatFaults,        ///< + node churn, jams, sink outages; oracle
  kClustered,         ///< leach/static rotation; oracle (head assign)
  kClusteredFaults,   ///< clustered + churn; oracle
  kAnalyticAnchor,    ///< lossless flat steady; analytic convergence
};

/// Serialize one random-but-valid generic spec.  Writing JSON text (not
/// a GenericSpec) is the point: the fuzzer exercises the same reader,
/// validator and interpreter a user's --file does.
std::string GenerateSpecText(util::Rng& rng) {
  const auto shape = static_cast<Shape>(util::UniformBelow(rng, 5));
  const bool analytic = shape == Shape::kAnalyticAnchor;
  const bool clustered =
      shape == Shape::kClustered || shape == Shape::kClusteredFaults;
  const bool faults =
      shape == Shape::kFlatFaults || shape == Shape::kClusteredFaults;

  const std::size_t cols = SizeIn(rng, 2, 6);
  const std::size_t rows = SizeIn(rng, 2, 6);
  const double spacing = UniformIn(rng, 10.0, 25.0);
  const double hop = spacing * UniformIn(rng, 1.5, 3.0);
  const double horizon = analytic ? 4000.0 : UniformIn(rng, 200.0, 600.0);
  const double rate =
      analytic ? UniformIn(rng, 1.0, 2.0) : UniformIn(rng, 0.2, 2.0);
  const double battery = analytic ? UniformIn(rng, 0.02, 0.04)
                                  : UniformIn(rng, 0.02, 0.08);

  util::JsonWriter w(0);
  w.BeginObject();
  w.Key("study").String("generic");
  w.Key("topology").BeginObject();
  w.Key("cols").UInt(cols);
  w.Key("rows").UInt(rows);
  w.Key("spacing").Number(spacing);
  w.Key("hop").Number(hop);
  w.EndObject();
  w.Key("node").BeginObject();
  w.Key("rate").Number(rate);
  w.Key("battery_mah").Number(battery);
  w.EndObject();

  if (analytic) {
    w.Key("traffic").BeginObject();
    w.Key("kind").String("steady");
    w.EndObject();
    w.Key("routing").BeginObject();
    w.Key("rerouting").Bool(false);
    w.EndObject();
  } else {
    if (Coin(rng)) {
      w.Key("traffic").BeginObject();
      w.Key("kind").String(Coin(rng) ? "bursty" : "steady");
      w.EndObject();
    }
    if (Coin(rng)) {
      w.Key("mac").BeginObject();
      w.Key("p_loss").Number(UniformIn(rng, 0.0, 0.3));
      w.Key("max_retries").UInt(SizeIn(rng, 1, 5));
      w.EndObject();
    }
  }

  if (clustered) {
    w.Key("cluster").BeginObject();
    w.Key("protocol").String(Coin(rng) ? "leach" : "static");
    w.Key("head_fraction").Number(UniformIn(rng, 0.1, 0.3));
    w.Key("round_s").Number(horizon /
                            static_cast<double>(SizeIn(rng, 5, 10)));
    w.Key("aggregation").UInt(SizeIn(rng, 1, 6));
    w.EndObject();
  }

  if (faults) {
    w.Key("faults").BeginObject();
    w.Key("crash_rate").Number(UniformIn(rng, 5.0e-4, 5.0e-3));
    w.Key("outage_s").Number(UniformIn(rng, 20.0, horizon / 3.0));
    if (Coin(rng)) {
      w.Key("jam_windows").UInt(SizeIn(rng, 1, 2));
      w.Key("jam_radius").Number(UniformIn(rng, 30.0, 60.0));
      w.Key("jam_p_loss").Number(UniformIn(rng, 0.2, 0.8));
    }
    if (Coin(rng)) {
      w.Key("sink_outages").UInt(1);
    }
    w.EndObject();
  }

  // Non-analytic shapes occasionally sweep a knob so multi-cell
  // interpretation (axis validation, cell labels, per-cell verification)
  // stays under fuzz too.
  if (!analytic && Coin(rng)) {
    const bool sweep_outage = faults && Coin(rng);
    w.Key("sweep").BeginArray();
    w.BeginObject();
    w.Key("key").String(sweep_outage ? "faults.outage_s" : "node.rate");
    w.Key("values").BeginArray();
    for (int k = 0; k < 2; ++k) {
      w.Number(sweep_outage ? UniformIn(rng, 20.0, horizon / 4.0)
                            : UniformIn(rng, 0.2, 2.0));
    }
    w.EndArray();
    w.EndObject();
    w.EndArray();
  }

  w.Key("run").BeginObject();
  w.Key("horizon_s").Number(horizon);
  if (analytic) w.Key("stop_at").String("first_death");
  w.Key("replications").UInt(SizeIn(rng, 2, 3));
  w.Key("seed").UInt(2008 + util::UniformBelow(rng, 1000));
  w.EndObject();

  w.Key("output").BeginObject();
  w.Key("columns").BeginArray();
  w.String("generated");
  w.String("delivered");
  w.String("dropped");
  w.String("delivery_ratio");
  if (faults) {
    w.String("crashes");
    w.String("recoveries");
    w.String("healed");
  }
  w.String("first_death_s");
  w.String("in_flight");
  w.String("conserved");
  w.EndArray();
  w.EndObject();

  w.Key("verify").BeginObject();
  if (analytic) {
    w.Key("analytic").Bool(true);
  } else {
    w.Key("oracle").Bool(true);
  }
  w.EndObject();
  w.EndObject();
  return w.Str();
}

/// The heavy half of one fuzz config: interpret the spec on the context's
/// executor, then on a single-threaded twin, and byte-compare the
/// rendered JSON.  The interpreter asserts conservation and the
/// oracle/analytic checks inside each run; identical renders pin
/// thread-count determinism.  `obs` is the session the first run
/// contributes to (null inside a forked worker).
void RunDifferential(const ScenarioContext& ctx, obs::Session* obs,
                     const ScenarioSpec& spec, std::size_t index,
                     const std::string& repro) {
  ScenarioContext exec_ctx;
  exec_ctx.args = ctx.args;
  exec_ctx.executor = ctx.executor;
  exec_ctx.obs = obs;
  ResultSet first = [&] {
    try {
      return RunSpec(exec_ctx, spec);
    } catch (const std::exception& e) {
      throw util::Error("netsim-fuzz: config " + std::to_string(index) +
                        " (" + e.what() + "); repro: " + repro);
    }
  }();
  util::ParallelExecutor serial(1);
  ScenarioContext serial_ctx;
  serial_ctx.args = ctx.args;
  serial_ctx.executor = &serial;
  const ResultSet second = RunSpec(serial_ctx, spec);
  const std::string first_render = first.Render(OutputFormat::kJson);
  const std::string second_render = second.Render(OutputFormat::kJson);
  if (first_render != second_render) {
    throw util::Error("netsim-fuzz: config " + std::to_string(index) +
                      " rendered differently on the executor vs a "
                      "single thread; repro: " + repro);
  }
}

ResultSet RunNetsimFuzz(const ScenarioContext& ctx) {
  const util::CliArgs& args = ctx.Args();
  const std::size_t count = args.GetCount("count", 20, 1);
  const std::size_t start = args.GetCount("start", 0);
  const std::uint64_t seed = args.GetCount("seed", 2008);
  const double config_deadline_s = args.GetDouble("config-deadline", 0.0);
  util::Require(config_deadline_s >= 0.0, "--config-deadline must be >= 0");

  ResultSet results(
      "config fuzz: random valid specs through the differential harness");
  results.SetMeta("configs", std::to_string(count));
  results.SetMeta("start", std::to_string(start));
  results.SetMeta("seed", std::to_string(seed));

  ResultTable& table = results.AddTable(
      "configs", {"config", "shape", "spec bytes", "cells", "replications",
                  "verified", "threads-identical"});

  const util::Rng master(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t index = start + i;
    const std::string repro = "wsnctl run netsim-fuzz --seed=" +
                              std::to_string(seed) +
                              " --start=" + std::to_string(index) +
                              " --count=1";
    util::Rng rng = master.MakeStream(index);
    const std::string text = GenerateSpecText(rng);

    ScenarioSpec spec;
    try {
      spec = ParseScenarioSpec(text);
    } catch (const std::exception& e) {
      // A generated spec failing validation is a fuzzer bug: the
      // generator only emits knobs the schema accepts.
      throw util::Error("netsim-fuzz: config " + std::to_string(index) +
                        " failed validation (" + e.what() +
                        "); repro: " + repro);
    }

    if (config_deadline_s > 0.0) {
      // Deadline fence (--config-deadline): the whole differential runs
      // in a forked worker so a hung config is killed and reported with
      // the same one-line repro as any other failure, instead of
      // stalling the entire fuzz sweep (docs/robustness.md).
      util::WorkerLimits limits;
      limits.deadline_s = config_deadline_s;
      const util::WorkerResult result = util::RunInWorker(
          [&ctx, &spec, index, &repro] {
            // obs stays off: a forked worker cannot contribute to the
            // parent's session.
            RunDifferential(ctx, nullptr, spec, index, repro);
            return std::string();
          },
          limits);
      if (!result.Ok()) {
        std::string what = "netsim-fuzz: config " + std::to_string(index) +
                           " failed in its worker (" + result.Describe() +
                           ")";
        // Exceptions relayed from the child already carry the repro.
        if (result.detail.find("repro:") == std::string::npos) {
          what += "; repro: " + repro;
        }
        throw util::Error(what);
      }
    } else {
      RunDifferential(ctx, ctx.obs, spec, index, repro);
    }

    // Shape + effort recap for the table, read back out of the spec.
    const GenericSpec& g = spec.generic;
    const bool faults = g.crash_rate_hz > 0.0;
    const std::string shape =
        g.verify_analytic
            ? "analytic-anchor"
            : std::string(g.clustered ? "clustered" : "flat") +
                  (faults ? "+faults" : "");
    std::size_t cells = 1;
    for (const SweepAxis& axis : g.sweep) cells *= axis.values.size();
    table.AddRow({std::to_string(index), shape,
                  std::to_string(text.size()), std::to_string(cells),
                  std::to_string(g.replications),
                  g.verify_analytic ? "conservation + analytic"
                                    : "conservation + oracle",
                  "yes"});
  }

  results.AddNote(
      "every config is generated, validated, interpreted and verified "
      "deterministically from (seed, index): rerun any single config "
      "with --seed=<seed> --start=<config> --count=1.  A config only "
      "reaches its table row after packet conservation held on every "
      "replication, the oracle/analytic check passed, and the executor "
      "and single-thread renders compared byte-identical.");
  return results;
}

const ScenarioRegistrar reg_netsim_fuzz(MakeScenario(
    "netsim-fuzz",
    "config fuzz: seed-deterministic random specs through the "
    "conservation / oracle / analytic / thread-identity differential "
    "harness",
    "extension (standing config-fuzz differential testing)",
    {
        {"count", "N", "20", "configs to generate and verify (>= 1)"},
        {"start", "N", "0", "first config index (repro: --start=i --count=1)"},
        {"seed", "N", "2008", "master RNG seed (non-negative)"},
        {"config-deadline", "S", "0",
         "wall-clock deadline per config in a forked worker; a hang is "
         "killed and reported with its repro line (0 = off)"},
    },
    RunNetsimFuzz));

}  // namespace
}  // namespace wsn::scenario
