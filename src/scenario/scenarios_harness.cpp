// harness-chaos: the execution-layer self-test (docs/robustness.md).
//
// For every seed in a matrix, and for worker executor widths 1 and 4,
// the scenario runs one small deterministic sweep three ways:
//
//   1. baseline — every point inline, no harness at all;
//   2. chaos — every point in a forked worker that kills itself with a
//      deterministically random signal (SIGKILL/SIGSEGV/SIGABRT/
//      SIGTERM) on early attempts, *after* computing its result, so the
//      retry machinery has to recover real mid-point crashes;
//   3. interrupted + resumed — chaos again, but the driver "dies" after
//      journaling half the points, then a second harness with --resume
//      replays the completed half and executes the rest.
//
// The rendered sweep output of (3) must be byte-identical to (1): a
// crash-riddled, interrupted-then-resumed run and a clean run are
// indistinguishable downstream.  A final check exercises --keep-going:
// a point whose worker dies on every attempt must yield an explicit
// error row, never a lost sweep.  Everything is deterministic per seed;
// the chaos schedule is a pure hash of (seed, point, attempt).
#include <signal.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/models.hpp"
#include "netsim/replication.hpp"
#include "scenario/common.hpp"
#include "scenario/harness.hpp"
#include "scenario/scenario.hpp"
#include "scenario/studies.hpp"
#include "util/error.hpp"
#include "util/executor.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace wsn::scenario {
namespace {

/// "11,17,23" -> {11, 17, 23}; throws InvalidArgument on junk or empty.
std::vector<std::uint64_t> ParseSeeds(const std::string& csv) {
  std::vector<std::uint64_t> seeds;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item =
        csv.substr(start, comma == std::string::npos ? comma : comma - start);
    try {
      std::size_t used = 0;
      const unsigned long long v = std::stoull(item, &used);
      util::Require(used == item.size() && !item.empty(), "trailing junk");
      seeds.push_back(v);
    } catch (const std::exception&) {
      throw util::InvalidArgument("--seeds: '" + item +
                                  "' is not a non-negative integer");
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  util::Require(!seeds.empty(), "--seeds must name at least one seed");
  return seeds;
}

/// The chaos schedule: a pure hash of (seed, point, attempt).  Attempts
/// 0 and 1 may die (p = 1/2 and 1/4); attempt 2 always survives, so
/// with >= 2 retries every point eventually completes.
bool ShouldKill(std::uint64_t seed, std::size_t point, std::size_t attempt,
                int* signal_out) {
  std::uint64_t h = util::Fnv1a64Mix(seed);
  h = util::Fnv1a64Mix(point, h);
  h = util::Fnv1a64Mix(attempt, h);
  // FNV's low bits are parities of the input bits — finalize through
  // SplitMix64 so the kill decision actually avalanches per seed.
  h = util::SplitMix64(h)();
  const bool kill =
      attempt == 0 ? (h % 2 == 0) : (attempt == 1 && h % 4 == 0);
  if (!kill) return false;
  static const int kSignals[] = {SIGKILL, SIGSEGV, SIGABRT, SIGTERM};
  *signal_out = kSignals[(h >> 8) % 4];
  return true;
}

struct ChaosParams {
  std::size_t points = 5;
  std::size_t replications = 2;
  double horizon_s = 300.0;
};

/// One sweep point's real work: a small netsim replication batch whose
/// report rate varies per point.  Deterministic per (seed, point,
/// replications) and independent of the executor width — exactly the
/// contract the byte-identity checks lean on.
std::vector<std::string> PointCells(const ChaosParams& params,
                                    std::size_t point, std::uint64_t seed,
                                    util::ParallelExecutor& executor) {
  GenericSpec spec;
  spec.cols = 4;
  spec.rows = 3;
  spec.rate_hz = 1.0 + 0.5 * static_cast<double>(point);
  spec.horizon_s = params.horizon_s;
  const netsim::NetSimConfig cfg = BuildNetSimConfig(spec);
  netsim::ReplicationConfig rep;
  rep.replications = params.replications;
  rep.seed = seed;
  rep.keep_reports = true;
  const core::MarkovCpuModel model;
  const netsim::ReplicationSummary summary =
      netsim::RunReplications(cfg, model, rep, executor);
  const std::string label =
      "rate=" + util::FormatFixed(spec.rate_hz, 1);
  for (std::size_t r = 0; r < summary.reports.size(); ++r) {
    RequireConserved(summary.reports[r], "chaos point '" + label + "'", r);
  }
  return {label, MetricCell(summary.first_death_s, 1),
          MetricCell(summary.delivery_ratio, 4),
          MetricCell(summary.delivered, 1), "yes"};
}

const std::vector<std::string> kInnerHeaders = {
    "config", "first death (s)", "delivery ratio", "delivered", "conserved"};

/// Render the inner sweep table the way the comparison consumes it.
std::string RenderInner(const std::vector<std::vector<std::string>>& rows,
                        std::uint64_t seed, std::size_t width) {
  ResultSet inner("chaos inner sweep");
  inner.SetMeta("seed", std::to_string(seed));
  inner.SetMeta("width", std::to_string(width));
  ResultTable& table = inner.AddTable("sweep", kInnerHeaders);
  for (const std::vector<std::string>& row : rows) table.AddRow(row);
  return inner.Render(OutputFormat::kJson);
}

struct ChaosOutcome {
  std::size_t killed = 0;    ///< workers that died to a chaos signal
  std::size_t replayed = 0;  ///< points replayed from the journal
  bool identical = false;    ///< resumed render == baseline render
};

/// Run the full baseline / chaos / interrupt+resume exercise for one
/// (seed, executor width) cell.  Throws util::Error on any divergence.
ChaosOutcome RunChaosCell(const ChaosParams& params, std::uint64_t seed,
                          std::size_t width,
                          const std::filesystem::path& dir) {
  // ---- baseline: inline, no harness -------------------------------
  util::ParallelExecutor executor(width);
  std::vector<std::vector<std::string>> baseline_rows;
  for (std::size_t i = 0; i < params.points; ++i) {
    baseline_rows.push_back(PointCells(params, i, seed, executor));
  }
  const std::string baseline = RenderInner(baseline_rows, seed, width);

  const std::string journal =
      (dir / ("chaos_" + std::to_string(seed) + "_w" +
              std::to_string(width) + ".jsonl"))
          .string();
  HarnessOptions options;
  options.isolate = true;
  options.retries = 3;     // chaos never kills attempt 2: always enough
  options.backoff_s = 0.0; // the self-test does not really sleep
  options.journal_path = journal;
  const std::string run_id = util::HexU64(util::Fnv1a64Mix(seed));

  const auto point_fn = [&params, seed, &executor](std::size_t i) {
    return [&params, seed, &executor, i](const PointEnv& env) {
      const std::vector<std::string> cells =
          PointCells(params, i, seed, executor);
      int sig = 0;
      if (env.isolated && ShouldKill(seed, i, env.attempt, &sig)) {
        // Mid-point death: the work is done but the result never
        // reaches the parent — the crash the retry layer must absorb.
        ::raise(sig);
      }
      return EncodeCells(cells);
    };
  };
  const auto key = [](std::size_t i) {
    return "chaos point " + std::to_string(i);
  };

  ChaosOutcome outcome;
  // ---- phase A: chaos run "killed" after half the points ----------
  const std::size_t half = params.points / 2;
  {
    PointHarness harness(options, run_id);
    for (std::size_t i = 0; i < half; ++i) {
      harness.RunPoint(key(i), seed, point_fn(i));
    }
    outcome.killed += harness.Counters().at("harness.worker.retries");
    // The driver "dies" here (after the fsync of point half-1, before
    // point half starts) — the strongest legal interruption point.
  }
  {
    // Every journaled record up to the interruption must already be a
    // complete, well-formed line: that is the fsync contract.
    std::ifstream in(journal, std::ios::binary);
    std::string line;
    std::size_t records = 0;
    while (std::getline(in, line)) {
      const util::JsonValue record = util::ParseJson(line);
      util::Require(record.Find("schema") != nullptr &&
                        record.Find("schema")->AsString() == "wsn-journal-v1",
                    "chaos journal record with bad schema");
      ++records;
    }
    util::Require(records == half,
                  "chaos journal holds " + std::to_string(records) +
                      " records, expected " + std::to_string(half));
  }

  // ---- phase B: resume, replay the half, execute the rest ---------
  options.resume = true;
  std::vector<std::vector<std::string>> resumed_rows;
  {
    PointHarness harness(options, run_id);
    for (std::size_t i = 0; i < params.points; ++i) {
      const PointOutcome point = harness.RunPoint(key(i), seed, point_fn(i));
      resumed_rows.push_back(DecodeCells(point.payload));
    }
    const auto counters = harness.Counters();
    outcome.killed += counters.at("harness.worker.retries");
    outcome.replayed = counters.at("harness.points.replayed");
    util::Require(outcome.replayed == half,
                  "resume replayed " + std::to_string(outcome.replayed) +
                      " points, expected " + std::to_string(half));
  }
  const std::string resumed = RenderInner(resumed_rows, seed, width);
  outcome.identical = resumed == baseline;
  if (!outcome.identical) {
    throw util::Error(
        "harness-chaos: interrupted-then-resumed output diverged from the "
        "clean run (seed " + std::to_string(seed) + ", width " +
        std::to_string(width) + ")");
  }
  return outcome;
}

/// The --keep-going degradation check: a worker that dies on every
/// attempt must produce an explicit error row and a recorded failure,
/// never an aborted sweep.
void CheckKeepGoing(const ChaosParams& params, std::uint64_t seed) {
  util::ParallelExecutor executor(1);
  HarnessOptions options;
  options.isolate = true;
  options.retries = 1;
  options.backoff_s = 0.0;
  options.keep_going = true;
  PointHarness harness(options, util::HexU64(util::Fnv1a64Mix(seed)));
  const char* const argv[] = {"harness-chaos"};
  const util::CliArgs args(1, argv);
  ScenarioContext ctx;
  ctx.args = &args;
  ctx.executor = &executor;
  ctx.harness = &harness;

  ResultSet results("keep-going");
  ResultTable& table = results.AddTable("sweep", kInnerHeaders);
  RunPointRow(ctx, table, "healthy point", seed, "healthy",
              [&params, seed](const ScenarioContext& point_ctx,
                              const PointEnv&) {
                return PointCells(params, 0, seed, point_ctx.Executor());
              });
  RunPointRow(ctx, table, "doomed point", seed, "doomed",
              [](const ScenarioContext&,
                 const PointEnv&) -> std::vector<std::string> {
                // SIGKILL so the taxonomy stays "signal" even under
                // sanitizers, which intercept SIGSEGV and exit instead.
                ::raise(SIGKILL);
                return {};
              });
  util::Require(table.rows.size() == 2,
                "--keep-going lost rows: the sweep shape must survive");
  util::Require(table.rows[1][0] == "doomed" &&
                    table.rows[1][1] == "error: signal (2 attempts)" &&
                    table.rows[1][2] == "-",
                "--keep-going error row rendered unexpectedly: '" +
                    table.rows[1][1] + "'");
  util::Require(harness.Failures().size() == 1 &&
                    harness.Failures()[0].failure == "signal",
                "--keep-going failure bookkeeping is wrong");
}

ResultSet RunHarnessChaos(const ScenarioContext& ctx) {
  const util::CliArgs& args = ctx.Args();
  ChaosParams params;
  params.points = args.GetCount("points", 5, 2);
  params.replications = args.GetCount("replications", 2, 1);
  params.horizon_s = args.GetDouble("horizon", 300.0);
  util::Require(params.horizon_s > 0.0, "--horizon must be > 0");
  const std::vector<std::uint64_t> seeds =
      ParseSeeds(args.GetString("seeds", "11,17,23"));

  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("wsn_harness_chaos_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  ResultSet results(
      "execution-layer chaos self-test: crash / retry / journal / resume");
  results.SetMeta("seeds", args.GetString("seeds", "11,17,23"));
  results.SetMeta("points", std::to_string(params.points));
  ResultTable& table = results.AddTable(
      "chaos", {"seed", "worker threads", "points", "workers killed",
                "replayed", "identical"});

  std::size_t total_killed = 0;
  try {
    for (const std::uint64_t seed : seeds) {
      for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
        const ChaosOutcome out = RunChaosCell(params, seed, width, dir);
        total_killed += out.killed;
        table.AddRow({std::to_string(seed), std::to_string(width),
                      std::to_string(params.points),
                      std::to_string(out.killed),
                      std::to_string(out.replayed),
                      out.identical ? "yes" : "NO"});
      }
    }
    CheckKeepGoing(params, seeds.front());
  } catch (...) {
    std::error_code ec;
    fs::remove_all(dir, ec);
    throw;
  }
  std::error_code ec;
  fs::remove_all(dir, ec);

  // A chaos run that killed nobody tested nothing.  With the default
  // matrix the odds of this are 2^-30; a custom tiny matrix that lands
  // here should grow --points or add seeds.
  util::Require(total_killed > 0,
                "harness-chaos: the chaos schedule killed no workers; "
                "increase --points or the --seeds matrix");

  ResultTable& verdict = results.AddTable("checks", {"check", "result"});
  verdict.AddRow({"resumed output byte-identical to clean run",
                  "pass (all seeds, widths 1 and 4)"});
  verdict.AddRow({"journal records complete at interruption", "pass"});
  verdict.AddRow({"--keep-going yields explicit error row", "pass"});
  results.AddNote(
      "each seed runs a " + std::to_string(params.points) +
      "-point sweep three ways: clean inline, crash-riddled under "
      "fork isolation with retries, and interrupted after half the "
      "points then resumed from the journal.  Workers die to "
      "deterministically random SIGKILL/SIGSEGV/SIGABRT/SIGTERM after "
      "computing their result; the resumed render must equal the clean "
      "render byte for byte.  See docs/robustness.md.");
  return results;
}

const ScenarioRegistrar reg_harness_chaos(MakeScenario(
    "harness-chaos",
    "execution-layer self-test: workers killed by random signals "
    "mid-point, retried, interrupted and resumed from the journal — "
    "output pinned byte-identical to a clean run",
    "extension (robust experiment execution, docs/robustness.md)",
    {
        {"seeds", "CSV", "11,17,23", "seed matrix to exercise"},
        {"points", "N", "5", "sweep points per run (>= 2)"},
        {"replications", "N", "2", "netsim replications per point (>= 1)"},
        {"horizon", "S", "300", "simulated horizon per replication (s)"},
    },
    RunHarnessChaos));

}  // namespace
}  // namespace wsn::scenario
