// Scenario engine: registry contents, flag validation, and the PR's
// acceptance pin — running a scenario at --threads=1 and --threads=8
// produces byte-identical table/CSV/JSON output for the same seed, for
// both an analytic sweep (table4) and a netsim replication scenario
// (netsim-lifetime).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/cpu_petri_net.hpp"
#include "core/models.hpp"
#include "petri/dspn_solver.hpp"
#include "scenario/result.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"
#include "util/error.hpp"
#include "util/executor.hpp"
#include "util/json.hpp"

namespace wsn::scenario {
namespace {

const Scenario& Lookup(const std::string& name) {
  const Scenario* s = ScenarioRegistry::Instance().Find(name);
  EXPECT_NE(s, nullptr) << "scenario '" << name << "' not registered";
  return *s;
}

/// Run `name` with `flags` on an executor of `threads` workers and
/// render all three sinks concatenated.
std::string RunAll(const std::string& name,
                   const std::vector<std::string>& flags,
                   std::size_t threads) {
  std::vector<const char*> argv = {"test"};
  for (const std::string& f : flags) argv.push_back(f.c_str());
  const util::CliArgs args(static_cast<int>(argv.size()), argv.data());
  util::ParallelExecutor executor(threads);
  ScenarioContext ctx;
  ctx.args = &args;
  ctx.executor = &executor;
  const ResultSet results = Lookup(name).Run(ctx);
  return results.RenderText() + "\n#####\n" + results.RenderCsv() +
         "\n#####\n" + results.RenderJson();
}

TEST(ScenarioRegistry, PaperArtifactsAreRegistered) {
  for (const char* name : {"table4", "table5", "fig4", "fig5",
                           "ablation-stages", "ablation-steady", "duty-cycle",
                           "model-comparison", "wsn-lifetime",
                           "netsim-lifetime", "netsim-throughput",
                           "netsim-clustered", "netsim-heterogeneous",
                           "cluster-ablation"}) {
    EXPECT_NE(ScenarioRegistry::Instance().Find(name), nullptr)
        << "missing scenario " << name;
  }
}

TEST(ScenarioRegistry, FindReturnsNullForUnknown) {
  EXPECT_EQ(ScenarioRegistry::Instance().Find("no-such-scenario"), nullptr);
}

TEST(ScenarioRegistry, AllIsSortedByName) {
  const auto all = ScenarioRegistry::Instance().All();
  ASSERT_GE(all.size(), 11u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->Name(), all[i]->Name());
  }
}

TEST(ScenarioRegistry, RejectsDuplicateNames) {
  EXPECT_THROW(
      ScenarioRegistry::Instance().Register(MakeScenario(
          "table4", "dup", "dup", {},
          [](const ScenarioContext&) { return ResultSet("dup"); })),
      util::InvalidArgument);
}

TEST(ScenarioRegistry, EveryScenarioDeclaresItsFlags) {
  // The unknown-flag guard only works if scenarios declare a vocabulary;
  // every sweep scenario here takes at least one flag.
  for (const Scenario* s : ScenarioRegistry::Instance().All()) {
    EXPECT_FALSE(s->Flags().empty()) << s->Name();
    EXPECT_FALSE(s->Summary().empty()) << s->Name();
    EXPECT_FALSE(s->Artifact().empty()) << s->Name();
  }
}

// Acceptance pin: analytic sweep determinism across thread counts.
TEST(ScenarioDeterminism, Table4ByteIdenticalAcrossThreadCounts) {
  const std::vector<std::string> flags = {"--points=3", "--replications=2",
                                          "--sim-time=20", "--seed=7"};
  const std::string serial = RunAll("table4", flags, 1);
  const std::string parallel = RunAll("table4", flags, 8);
  EXPECT_EQ(serial, parallel);
  // Sanity: a different seed must actually change the simulation cells,
  // proving the comparison is not trivially empty.
  const std::string other_seed =
      RunAll("table4", {"--points=3", "--replications=2", "--sim-time=20",
                        "--seed=8"},
             1);
  EXPECT_NE(serial, other_seed);
}

// Each effort case is a Map job running a whole Petri-net ensemble
// inline, so the width only changes which thread runs which case.
TEST(ScenarioDeterminism, AblationSteadyByteIdenticalAcrossThreadCounts) {
  const std::string serial = RunAll("ablation-steady", {}, 1);
  const std::string parallel = RunAll("ablation-steady", {}, 4);
  EXPECT_NE(serial.find("20000"), std::string::npos);  // last effort row
  EXPECT_EQ(serial, parallel);
}

// Acceptance pin: netsim replication determinism across thread counts.
TEST(ScenarioDeterminism, NetsimLifetimeByteIdenticalAcrossThreadCounts) {
  const std::vector<std::string> flags = {"--cols=3", "--rows=2",
                                          "--horizon=200",
                                          "--replications=3", "--seed=11"};
  const std::string serial = RunAll("netsim-lifetime", flags, 1);
  const std::string parallel = RunAll("netsim-lifetime", flags, 8);
  EXPECT_EQ(serial, parallel);
}

// Acceptance pin: the clustered workload (rotating elections, repair
// after head death, aggregation) is also byte-identical across thread
// counts.
TEST(ScenarioDeterminism, NetsimClusteredByteIdenticalAcrossThreadCounts) {
  const std::vector<std::string> flags = {"--cols=3", "--rows=3",
                                          "--horizon=400",
                                          "--replications=3", "--seed=11"};
  const std::string serial = RunAll("netsim-clustered", flags, 1);
  const std::string parallel = RunAll("netsim-clustered", flags, 8);
  EXPECT_EQ(serial, parallel);
  const std::string other_seed =
      RunAll("netsim-clustered",
             {"--cols=3", "--rows=3", "--horizon=400", "--replications=3",
              "--seed=12"},
             1);
  EXPECT_NE(serial, other_seed);
}

// Cross-change output pins (ISSUE 7): the SoA node-state restructuring,
// batched LPL wakeups and grid head assignment are pure layout/speed
// changes — the rendered scenario output for a fixed (flags, seed) must
// be byte-for-byte what the pre-change array-of-structs simulator
// produced.  The FNV-1a hashes below were captured BEFORE the refactor;
// a mismatch means the refactor changed simulation behaviour, not just
// performance.  Re-pin only with an explicit note in docs/performance.md.
std::uint64_t Fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(ScenarioDeterminism, NetsimLifetimeOutputPinnedAcrossSoARefactor) {
  const std::string out =
      RunAll("netsim-lifetime",
             {"--cols=5", "--rows=4", "--horizon=1200", "--replications=2",
              "--seed=2008"},
             1);
  EXPECT_EQ(out.size(), 4826u);
  EXPECT_EQ(Fnv1a64(out), 0x2312344034942ccaull);
}

TEST(ScenarioDeterminism, NetsimClusteredOutputPinnedAcrossSoARefactor) {
  const std::string out =
      RunAll("netsim-clustered",
             {"--cols=6", "--rows=6", "--horizon=900", "--replications=2",
              "--seed=2008"},
             1);
  EXPECT_EQ(out.size(), 6246u);
  EXPECT_EQ(Fnv1a64(out), 0x659e0f3c8c3316b5ull);
}

/// Run a parsed spec on `threads` workers and render all three sinks.
std::string RunSpecAll(const ScenarioSpec& spec, std::size_t threads) {
  const char* argv[] = {"test"};
  const util::CliArgs args(1, argv);
  util::ParallelExecutor executor(threads);
  ScenarioContext ctx;
  ctx.args = &args;
  ctx.executor = &executor;
  const ResultSet results = RunSpec(ctx, spec);
  return results.RenderText() + "\n#####\n" + results.RenderCsv() +
         "\n#####\n" + results.RenderJson();
}

// Absolute output pins for every netsim study runner and for the
// generic interpreter's topology, class, fault and cluster paths.  The
// preset-twin tests below compare two front ends that share one config
// builder, so they cannot see a change that moves both sides; these
// hashes can.
TEST(ScenarioDeterminism, NetsimHeterogeneousOutputPinned) {
  const std::string out = RunAll("netsim-heterogeneous", {}, 1);
  EXPECT_EQ(out.size(), 3359u);
  EXPECT_EQ(Fnv1a64(out), 0xb04d846c788a9fffull);
}

TEST(ScenarioDeterminism, NetsimFaultsOutputPinned) {
  const std::string out =
      RunAll("netsim-faults",
             {"--crash-rates=0.001", "--outages=150", "--nodes=48",
              "--horizon=600", "--replications=2"},
             1);
  EXPECT_EQ(out.size(), 4312u);
  EXPECT_EQ(Fnv1a64(out), 0x46e572e83b6465f9ull);
}

TEST(ScenarioDeterminism, ClusterAblationOutputPinned) {
  const std::string out =
      RunAll("cluster-ablation",
             {"--cols=4", "--rows=4", "--horizon=600", "--replications=2",
              "--round=50"},
             1);
  EXPECT_EQ(out.size(), 4891u);
  EXPECT_EQ(Fnv1a64(out), 0x5f55f3a390bf4f60ull);
}

// The throughput study times itself, so only its deterministic parts
// are compared: scenario name, meta (minus the machine's hardware thread
// count), table headers, the mode/threads cells and the cross-check
// note.
std::string ThroughputDeterministicParts(
    const std::vector<std::string>& flags) {
  std::vector<const char*> argv = {"test"};
  for (const std::string& f : flags) argv.push_back(f.c_str());
  const util::CliArgs args(static_cast<int>(argv.size()), argv.data());
  util::ParallelExecutor executor(2);
  ScenarioContext ctx;
  ctx.args = &args;
  ctx.executor = &executor;
  const ResultSet results = Lookup("netsim-throughput").Run(ctx);
  const util::JsonValue doc =
      util::ParseJson(results.Render(OutputFormat::kJson));
  std::string out = doc.Find("scenario")->AsString() + "\n";
  for (const auto& [key, value] : doc.Find("meta")->Members()) {
    if (key != "hardware-threads") out += key + "=" + value.AsString() + "\n";
  }
  const util::JsonValue& table = doc.Find("tables")->Items()[0];
  for (const util::JsonValue& h : table.Find("headers")->Items()) {
    out += h.AsString() + "|";
  }
  out += "\n";
  for (const util::JsonValue& row : table.Find("rows")->Items()) {
    out += row.Items()[0].AsString() + "|" + row.Items()[1].AsString() + "\n";
  }
  for (const util::JsonValue& note : doc.Find("notes")->Items()) {
    out += note.AsString() + "\n";
  }
  return out;
}

TEST(ScenarioDeterminism, NetsimThroughputClusteredDeterministicPartsPinned) {
  const std::string out = ThroughputDeterministicParts(
      {"--cols=4", "--rows=4", "--horizon=50", "--replications=4",
       "--clustered"});
  EXPECT_EQ(out.size(), 300u);
  EXPECT_EQ(Fnv1a64(out), 0xc546487e1edb92a2ull);
}

TEST(ScenarioDeterminism, GenericSpecOutputPinned) {
  const ScenarioSpec spec = ParseScenarioSpec(
      R"({"study": "generic",
          "topology": {"nodes": 30, "spacing": 15, "hop": 40, "sinks": 3},
          "node": {"rate": 1, "battery_mah": 0.05},
          "traffic": {"kind": "bursty"},
          "cluster": {"round_s": 50, "aggregation": 3},
          "classes": {"advanced_fraction": 0.2, "battery_factor": 3,
                      "placement": "hotspot"},
          "faults": {"crash_rate": 0.001, "outage_s": 100,
                     "jam_windows": 2, "jam_radius": 40,
                     "sink_outages": 1, "sink_outage_s": 30},
          "sweep": [{"key": "cluster.head_fraction", "values": [0.1, 0.2]}],
          "run": {"horizon_s": 400, "replications": 2, "seed": 7},
          "output": {"columns": ["generated", "delivered", "dropped",
                                 "delivery_ratio", "first_death_s",
                                 "partition_s", "crashes", "recoveries",
                                 "healed", "in_flight", "events",
                                 "conserved"]},
          "verify": {"oracle": true}})");
  const std::string out = RunSpecAll(spec, 1);
  EXPECT_EQ(out.size(), 3252u);
  EXPECT_EQ(Fnv1a64(out), 0x53babefbfe9c7b45ull);
}

// Paper-artifact pins.  Tables 4 and 5 run the DES, the Markov model
// and the Fig. 3 Petri net's token game; the exact DSPN solver is the
// reference the benchmark checks them against.  A change that only
// makes the Petri layer faster must leave every bit of these unchanged.
TEST(ScenarioDeterminism, Table4OutputPinned) {
  const std::string out =
      RunAll("table4",
             {"--points=3", "--replications=2", "--sim-time=50",
              "--seed=2008"},
             1);
  EXPECT_EQ(out.size(), 2661u);
  EXPECT_EQ(Fnv1a64(out), 0x42ad60de75997529ull);
}

TEST(ScenarioDeterminism, Table5OutputPinned) {
  const std::string out =
      RunAll("table5",
             {"--points=4", "--replications=3", "--sim-time=30",
              "--seed=17"},
             1);
  EXPECT_EQ(out.size(), 2439u);
  EXPECT_EQ(Fnv1a64(out), 0xe8263b830b5d8a9full);
}

/// Every double of `values` in hexfloat, so a pin sees every bit.
std::string HexFloats(const std::vector<double>& values) {
  std::string out;
  char buf[64];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, "%a\n", v);
    out += buf;
  }
  return out;
}

TEST(ScenarioDeterminism, DspnExactSharesPinned) {
  const core::DspnExactCpuModel model;
  std::vector<double> values;
  for (const double pud : {0.001, 0.3, 10.0}) {
    for (const double pdt : {1e-3, 0.5, 1.0}) {
      core::CpuParams params;
      params.power_up_delay = pud;
      params.power_down_threshold = pdt;
      const core::ModelEvaluation e = model.Evaluate(params);
      values.insert(values.end(),
                    {e.shares.standby, e.shares.powerup, e.shares.idle,
                     e.shares.active, e.mean_jobs});
    }
  }
  const std::string out = HexFloats(values);
  EXPECT_EQ(Fnv1a64(out), 0x20ff00b79ed0287full) << out;
}

// Tables 4 and 5 render three decimals; this pins every bit of the
// Fig. 3 token game's shares.
TEST(ScenarioDeterminism, PetriNetTokenGameSharesPinned) {
  core::EvalConfig config;
  config.sim_time = 200.0;
  config.replications = 3;
  config.seed = 2008;
  config.threads = 1;
  const core::PetriNetCpuModel model(config);
  std::vector<double> values;
  for (const double pud : {0.001, 0.3, 10.0}) {
    for (const double pdt : {1e-3, 0.5}) {
      core::CpuParams params;
      params.power_up_delay = pud;
      params.power_down_threshold = pdt;
      const core::ModelEvaluation e = model.Evaluate(params);
      values.insert(values.end(),
                    {e.shares.standby, e.shares.powerup, e.shares.idle,
                     e.shares.active, e.mean_jobs, e.share_ci_halfwidth});
    }
  }
  const std::string out = HexFloats(values);
  EXPECT_EQ(Fnv1a64(out), 0xfa915d0f9d893ba7ull) << out;
}

// A truncation tight enough that firings out of the boundary markings
// drop visible mass, which the solver folds back as self-loops.
TEST(ScenarioDeterminism, DspnExactTruncatedSolutionPinned) {
  core::CpuParams params;
  params.power_up_delay = 10.0;
  params.power_down_threshold = 0.5;
  core::CpuNetLayout layout;
  const petri::PetriNet net = core::BuildCpuPetriNet(params, &layout);
  petri::DspnOptions opts;
  opts.truncate_tokens = 4;
  const petri::SpnSteadyState ss = petri::SolveDspnExact(net, opts);
  EXPECT_LE(ss.mean_tokens[layout.cpu_buffer], 4.0);
  std::vector<double> values = ss.mean_tokens;
  values.insert(values.end(), ss.throughput.begin(), ss.throughput.end());
  const std::string out = HexFloats(values);
  EXPECT_EQ(ss.tangible_states, 11u);
  EXPECT_EQ(Fnv1a64(out), 0xf08d76e7f967296dull) << out;
}

// Preset round-trip pins (ISSUE 9): every committed preset file under
// presets/ is the declarative twin of a registered scenario.  Running
// it through `wsnctl run --file`'s load-and-interpret path must render
// byte-for-byte what the registry scenario renders, at any thread
// count.  A mismatch means a preset drifted from its twin (or the spec
// interpreter stopped sharing the registry's study runners).
std::string RunPreset(const std::string& name, std::size_t threads) {
  const char* argv[] = {"test"};
  const util::CliArgs args(1, argv);
  util::ParallelExecutor executor(threads);
  ScenarioContext ctx;
  ctx.args = &args;
  ctx.executor = &executor;
  const ScenarioSpec spec = LoadScenarioSpecFile(
      std::string(WSN_SOURCE_DIR) + "/presets/" + name + ".json");
  const ResultSet results = RunSpec(ctx, spec);
  return results.RenderText() + "\n#####\n" + results.RenderCsv() +
         "\n#####\n" + results.RenderJson();
}

TEST(ScenarioPresets, LifetimePresetMatchesRegistryTwin) {
  const std::string registry = RunAll("netsim-lifetime", {}, 1);
  EXPECT_EQ(RunPreset("netsim-lifetime", 1), registry);
  EXPECT_EQ(RunPreset("netsim-lifetime", 4), registry);
}

TEST(ScenarioPresets, ClusteredPresetMatchesRegistryTwin) {
  const std::string registry = RunAll("netsim-clustered", {}, 1);
  EXPECT_EQ(RunPreset("netsim-clustered", 1), registry);
  EXPECT_EQ(RunPreset("netsim-clustered", 4), registry);
}

TEST(ScenarioPresets, HeterogeneousPresetMatchesRegistryTwin) {
  const std::string registry = RunAll("netsim-heterogeneous", {}, 1);
  EXPECT_EQ(RunPreset("netsim-heterogeneous", 1), registry);
  EXPECT_EQ(RunPreset("netsim-heterogeneous", 4), registry);
}

TEST(ScenarioPresets, FaultsPresetMatchesRegistryTwin) {
  // The preset pins the single-point study: one crash rate, one outage.
  const std::string registry = RunAll(
      "netsim-faults", {"--crash-rates=0.001", "--outages=150"}, 1);
  EXPECT_EQ(RunPreset("netsim-faults", 1), registry);
  EXPECT_EQ(RunPreset("netsim-faults", 4), registry);
}

// The throughput scenario measures wall-clock, so its preset cannot be
// byte-pinned; pin everything except the timing cells instead: scenario
// name, meta, headers, the mode/threads columns, and the delivery-ratio
// cross-check note (which proves serial and parallel streams agreed).
TEST(ScenarioPresets, ThroughputPresetMatchesRegistryTwinStructurally) {
  const char* argv[] = {"test"};
  const util::CliArgs args(1, argv);
  util::ParallelExecutor executor(2);
  ScenarioContext ctx;
  ctx.args = &args;
  ctx.executor = &executor;
  const ResultSet from_registry = Lookup("netsim-throughput").Run(ctx);
  const ScenarioSpec spec = LoadScenarioSpecFile(
      std::string(WSN_SOURCE_DIR) + "/presets/netsim-throughput.json");
  const ResultSet from_preset = RunSpec(ctx, spec);

  const util::JsonValue a =
      util::ParseJson(from_registry.Render(OutputFormat::kJson));
  const util::JsonValue b =
      util::ParseJson(from_preset.Render(OutputFormat::kJson));
  EXPECT_EQ(*a.Find("scenario"), *b.Find("scenario"));
  EXPECT_EQ(*a.Find("meta"), *b.Find("meta"));
  EXPECT_EQ(*a.Find("notes"), *b.Find("notes"));
  const auto& ta = a.Find("tables")->Items()[0];
  const auto& tb = b.Find("tables")->Items()[0];
  EXPECT_EQ(*ta.Find("headers"), *tb.Find("headers"));
  const auto& rows_a = ta.Find("rows")->Items();
  const auto& rows_b = tb.Find("rows")->Items();
  ASSERT_EQ(rows_a.size(), rows_b.size());
  for (std::size_t i = 0; i < rows_a.size(); ++i) {
    // Columns 0..1 are mode and threads; the rest are timing.
    EXPECT_EQ(rows_a[i].Items()[0], rows_b[i].Items()[0]);
    EXPECT_EQ(rows_a[i].Items()[1], rows_b[i].Items()[1]);
  }
}

TEST(ScenarioRun, RejectsInvalidEffortFlags) {
  EXPECT_THROW(RunAll("table4", {"--replications=0"}, 1),
               util::InvalidArgument);
  EXPECT_THROW(RunAll("table4", {"--seed=-5"}, 1), util::InvalidArgument);
  EXPECT_THROW(RunAll("table4", {"--points=-2"}, 1), util::InvalidArgument);
}

// A fault window length must be positive when given; omitting the flag
// keeps the horizon / 10 default.
TEST(ScenarioRun, RejectsNonPositiveFaultWindowFlags) {
  const std::vector<std::string> small = {"--nodes=16", "--horizon=200",
                                          "--replications=1",
                                          "--crash-rates=0.001",
                                          "--outages=50"};
  for (const char* flag : {"--jam-duration=-5", "--jam-duration=0",
                           "--sink-outage=-5", "--sink-outage=0"}) {
    std::vector<std::string> flags = small;
    flags.push_back(flag);
    try {
      RunAll("netsim-faults", flags, 1);
      ADD_FAILURE() << flag << " was accepted";
    } catch (const util::InvalidArgument& e) {
      const std::string name(flag, std::string(flag).find('='));
      EXPECT_NE(std::string(e.what()).find("flag " + name + " must be "
                                           "positive"),
                std::string::npos)
          << e.what();
    }
  }
  std::vector<std::string> explicit_default = small;
  explicit_default.push_back("--jam-duration=20");
  explicit_default.push_back("--sink-outage=20");
  EXPECT_EQ(RunAll("netsim-faults", small, 1),
            RunAll("netsim-faults", explicit_default, 1));
}

// Every default the netsim scenarios' help shows is the value the
// scenario runs with: passing each shown default explicitly must not
// change the output.  A default changed in a *Defaults() function but
// not in the help (or the reverse) fails here.
TEST(ScenarioRegistry, NetsimFlagHelpShowsTheStudyDefaults) {
  for (const char* name :
       {"netsim-lifetime", "netsim-throughput", "netsim-clustered",
        "netsim-heterogeneous", "cluster-ablation", "netsim-faults"}) {
    std::vector<std::string> shown;
    for (const util::FlagSpec& f : Lookup(name).Flags()) {
      if (!f.default_value.empty()) {
        shown.push_back("--" + f.name + "=" + f.default_value);
      }
    }
    EXPECT_GE(shown.size(), 6u) << name;
    if (std::string(name) == "netsim-throughput") {
      EXPECT_EQ(ThroughputDeterministicParts({}),
                ThroughputDeterministicParts(shown))
          << name;
    } else {
      EXPECT_EQ(RunAll(name, {}, 1), RunAll(name, shown, 1)) << name;
    }
  }
}

/// Expects `scenario` with `flags` to fail before running, with an error
/// that names `flag` and contains `what`.
void ExpectFlagRejected(const std::string& scenario,
                        const std::vector<std::string>& flags,
                        const std::string& flag, const std::string& what) {
  try {
    RunAll(scenario, flags, 1);
    ADD_FAILURE() << scenario << " accepted " << flags.back();
  } catch (const util::InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("flag --" + flag + " must be " + what),
              std::string::npos)
        << scenario << ": " << msg;
  }
}

// --rate, --spacing, --hop, --head-fraction and --round are checked
// where the wrappers read them, so the error names the flag instead of
// the library parameter it feeds.
TEST(ScenarioRun, RejectsNonPositiveRateFlag) {
  for (const char* scenario :
       {"netsim-lifetime", "netsim-throughput", "netsim-clustered",
        "netsim-heterogeneous", "cluster-ablation", "netsim-faults"}) {
    for (const char* value : {"--rate=0", "--rate=-2"}) {
      ExpectFlagRejected(scenario, {value}, "rate", "positive");
    }
  }
}

TEST(ScenarioRun, RejectsNonPositiveSpacingFlag) {
  for (const char* scenario :
       {"netsim-lifetime", "netsim-throughput", "netsim-clustered",
        "netsim-heterogeneous", "cluster-ablation", "netsim-faults"}) {
    for (const char* value : {"--spacing=0", "--spacing=-1"}) {
      ExpectFlagRejected(scenario, {value}, "spacing", "positive");
    }
  }
}

TEST(ScenarioRun, RejectsNonPositiveHopFlag) {
  for (const char* scenario :
       {"netsim-lifetime", "netsim-throughput", "netsim-clustered",
        "netsim-heterogeneous", "cluster-ablation", "netsim-faults"}) {
    for (const char* value : {"--hop=0", "--hop=-40"}) {
      ExpectFlagRejected(scenario, {value}, "hop", "positive");
    }
  }
}

TEST(ScenarioRun, RejectsHeadFractionFlagOutsideUnitInterval) {
  for (const char* scenario : {"netsim-clustered", "cluster-ablation"}) {
    for (const char* value :
         {"--head-fraction=0", "--head-fraction=-0.1", "--head-fraction=1.5"}) {
      ExpectFlagRejected(scenario, {value}, "head-fraction", "in (0, 1]");
    }
  }
  // The closed end is valid.
  EXPECT_NO_THROW(RunAll("netsim-clustered",
                         {"--head-fraction=1", "--horizon=50",
                          "--replications=1"},
                         1));
}

TEST(ScenarioRun, RejectsNonPositiveRoundFlag) {
  for (const char* scenario : {"netsim-clustered", "cluster-ablation"}) {
    for (const char* value : {"--round=0", "--round=-25"}) {
      ExpectFlagRejected(scenario, {value}, "round", "positive");
    }
  }
}

}  // namespace
}  // namespace wsn::scenario
