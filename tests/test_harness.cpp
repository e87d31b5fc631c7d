// Sweep-point harness tests: the durable journal, --resume replay,
// --keep-going error rows, crash isolation plumbing and the atomic
// file-output helpers (docs/robustness.md).
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/harness.hpp"
#include "scenario/result.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/executor.hpp"
#include "util/fsio.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/subproc.hpp"

namespace wsn::scenario {
namespace {

namespace fs = std::filesystem;

/// RAII temp directory for journal files.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("wsn_harness_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string File(const std::string& name) const {
    return (path / name).string();
  }
  static int& counter() {
    static int n = 0;
    return n;
  }
};

const char* const kArgv[] = {"test"};

struct Fixture {
  util::ParallelExecutor executor{2};
  util::CliArgs args{1, kArgv};
  ScenarioContext Ctx(PointHarness* harness = nullptr) {
    ScenarioContext ctx;
    ctx.args = &args;
    ctx.executor = &executor;
    ctx.harness = harness;
    return ctx;
  }
};

std::vector<std::string> JournalLines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(HarnessCells, EncodeDecodeRoundTrip) {
  const std::vector<std::string> cells = {"a", "", "with \"quotes\"",
                                          "new\nline", "3.14"};
  EXPECT_EQ(DecodeCells(EncodeCells(cells)), cells);
  EXPECT_EQ(DecodeCells(EncodeCells({})), std::vector<std::string>{});
}

TEST(HarnessCells, DecodeRejectsMalformedPayloads) {
  EXPECT_THROW(DecodeCells("not json"), std::exception);
  EXPECT_THROW(DecodeCells("{\"a\":1}"), util::Error);   // not an array
  EXPECT_THROW(DecodeCells("[1, 2]"), util::Error);      // not strings
}

/// Runs one point through RunPointRow under `options` and returns its
/// row: whether the point saw the driver's executor, whether it ran
/// isolated, and the sum of squares it fanned out on that executor.
std::vector<std::string> ExecutorProbeRow(Fixture& f,
                                          const HarnessOptions& options) {
  PointHarness harness(options, "0123456789abcdef");
  const ScenarioContext ctx = f.Ctx(&harness);
  ResultSet results("probe");
  ResultTable& table =
      results.AddTable("t", {"same executor", "isolated", "sum"});
  RunPointRow(ctx, table, "p0", 7, "p0",
              [&f](const ScenarioContext& point_ctx, const PointEnv& env) {
                const std::vector<std::size_t> squares =
                    point_ctx.Executor().Map(
                        8, [](std::size_t i) { return i * i; });
                return std::vector<std::string>{
                    point_ctx.executor == &f.executor ? "yes" : "no",
                    env.isolated ? "yes" : "no",
                    std::to_string(std::accumulate(squares.begin(),
                                                   squares.end(),
                                                   std::size_t{0}))};
              });
  EXPECT_EQ(harness.Counters().at("harness.points.executed"), 1u);
  return table.rows.at(0);
}

TEST(Harness, InlinePointRunsOnTheDriversExecutor) {
  Fixture f;
  const HarnessOptions options;  // everything off: zero-cost-when-off path
  EXPECT_EQ(ExecutorProbeRow(f, options),
            (std::vector<std::string>{"yes", "no", "140"}));
}

TEST(Harness, IsolatedPointFansOutOnTheDriversExecutorInAWorker) {
  // The executor is only a width, so the forked child fans out on the
  // very object the driver built, exactly as an inline point does.
  Fixture f;
  HarnessOptions options;
  options.isolate = true;
  EXPECT_EQ(ExecutorProbeRow(f, options),
            (std::vector<std::string>{"yes", "yes", "140"}));
}

TEST(Harness, JournalRecordsMatchTheDocumentedSchema) {
  TempDir dir;
  Fixture f;
  HarnessOptions options;
  options.journal_path = dir.File("run.jsonl");
  {
    PointHarness harness(options, "00000000deadbeef");
    harness.RunPoint("alpha", 11,
                     [](const PointEnv&) { return std::string("A"); });
    harness.RunPoint("beta", 12,
                     [](const PointEnv&) { return std::string("B"); });
  }
  const std::vector<std::string> lines = JournalLines(options.journal_path);
  ASSERT_EQ(lines.size(), 2u);
  const util::JsonValue rec = util::ParseJson(lines[0]);
  EXPECT_EQ(rec.Find("schema")->AsString(), "wsn-journal-v1");
  EXPECT_EQ(rec.Find("run")->AsString(), "00000000deadbeef");
  EXPECT_EQ(rec.Find("point")->AsString(), "alpha");
  EXPECT_EQ(rec.Find("seed")->AsNumber(), 11.0);
  EXPECT_EQ(rec.Find("status")->AsString(), "ok");
  EXPECT_EQ(rec.Find("payload")->AsString(), "A");
  EXPECT_EQ(rec.Find("hash")->AsString(), util::HexU64(util::Fnv1a64("A")));
}

TEST(Harness, ResumeReplaysCompletedPointsWithoutExecuting) {
  TempDir dir;
  Fixture f;
  HarnessOptions options;
  options.journal_path = dir.File("run.jsonl");
  {
    PointHarness first(options, "00000000deadbeef");
    first.RunPoint("alpha", 1,
                   [](const PointEnv&) { return std::string("A"); });
    first.RunPoint("beta", 2,
                   [](const PointEnv&) { return std::string("B"); });
  }
  options.resume = true;
  PointHarness resumed(options, "00000000deadbeef");
  bool executed = false;
  const PointOutcome alpha =
      resumed.RunPoint("alpha", 1, [&executed](const PointEnv&) {
        executed = true;
        return std::string("A");
      });
  EXPECT_TRUE(alpha.replayed);
  EXPECT_EQ(alpha.payload, "A");
  EXPECT_FALSE(executed) << "a journaled point must not re-run";
  // A point missing from the journal executes and is appended.
  const PointOutcome gamma = resumed.RunPoint(
      "gamma", 3, [](const PointEnv&) { return std::string("C"); });
  EXPECT_FALSE(gamma.replayed);
  const auto counters = resumed.Counters();
  EXPECT_EQ(counters.at("harness.points.replayed"), 1u);
  EXPECT_EQ(counters.at("harness.points.executed"), 1u);
  EXPECT_EQ(JournalLines(options.journal_path).size(), 3u);
}

TEST(Harness, ResumeRejectsAJournalFromADifferentRunConfiguration) {
  TempDir dir;
  Fixture f;
  HarnessOptions options;
  options.journal_path = dir.File("run.jsonl");
  {
    PointHarness first(options, "aaaaaaaaaaaaaaaa");
    first.RunPoint("alpha", 1,
                   [](const PointEnv&) { return std::string("A"); });
  }
  options.resume = true;
  try {
    PointHarness other(options, "bbbbbbbbbbbbbbbb");
    FAIL() << "run-id mismatch was not rejected";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("different run configuration"),
              std::string::npos)
        << e.what();
  }
}

TEST(Harness, ResumeToleratesATornFinalRecordOnly) {
  TempDir dir;
  Fixture f;
  HarnessOptions options;
  options.journal_path = dir.File("run.jsonl");
  {
    PointHarness first(options, "00000000deadbeef");
    first.RunPoint("alpha", 1,
                   [](const PointEnv&) { return std::string("A"); });
  }
  // Simulate a crash mid-append: a torn, unparseable final line.
  {
    std::ofstream out(options.journal_path,
                      std::ios::binary | std::ios::app);
    out << "{\"schema\":\"wsn-journal-v1\",\"run\":\"00000000dead";
  }
  options.resume = true;
  PointHarness resumed(options, "00000000deadbeef");
  const PointOutcome alpha = resumed.RunPoint(
      "alpha", 1, [](const PointEnv&) { return std::string("A"); });
  EXPECT_TRUE(alpha.replayed) << "the intact record before the tear";

  // The same corruption anywhere but the end is a hard error.
  {
    std::ofstream out(options.journal_path,
                      std::ios::binary | std::ios::trunc);
    out << "garbage not json\n";
    out << "{\"schema\":\"wsn-journal-v1\"}\n";
  }
  EXPECT_THROW(PointHarness(options, "00000000deadbeef"),
               util::Error);
}

TEST(Harness, ResumeVerifiesThePayloadHash) {
  TempDir dir;
  Fixture f;
  HarnessOptions options;
  options.journal_path = dir.File("run.jsonl");
  {
    PointHarness first(options, "00000000deadbeef");
    first.RunPoint("alpha", 1,
                   [](const PointEnv&) { return std::string("A"); });
  }
  // Flip the payload without updating the recorded hash.
  std::vector<std::string> lines = JournalLines(options.journal_path);
  ASSERT_EQ(lines.size(), 1u);
  std::string tampered = lines[0];
  const auto at = tampered.find("\"payload\":\"A\"");
  ASSERT_NE(at, std::string::npos);
  tampered.replace(at, 13, "\"payload\":\"X\"");
  {
    std::ofstream out(options.journal_path,
                      std::ios::binary | std::ios::trunc);
    out << tampered << "\n";
    // A second record keeps the tampered one off the torn-tail path.
    out << "{\"schema\":\"wsn-journal-v1\",\"run\":\"00000000deadbeef\","
           "\"point\":\"beta\",\"seed\":2,\"status\":\"ok\","
           "\"payload\":\"B\",\"hash\":\""
        << util::HexU64(util::Fnv1a64("B")) << "\"}\n";
  }
  options.resume = true;
  try {
    PointHarness resumed(options, "00000000deadbeef");
    FAIL() << "payload hash mismatch was not rejected";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("hash mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(Harness, ExhaustedPointThrowsWorkerErrorWithoutKeepGoing) {
  Fixture f;
  HarnessOptions options;
  options.isolate = true;
  options.retries = 1;
  options.backoff_s = 0.0;  // no real sleeping in tests
  PointHarness harness(options, "0123456789abcdef");
  try {
    harness.RunPoint("doomed", 1, [](const PointEnv&) {
      // SIGKILL, not SIGSEGV: sanitizers intercept SEGV and exit
      // instead, which would reclassify the failure as nonzero-exit.
      ::raise(SIGKILL);
      return std::string();
    });
    FAIL() << "exhausted point did not throw";
  } catch (const util::WorkerError& e) {
    EXPECT_EQ(e.Failure(), util::WorkerFailure::kSignal);
    EXPECT_NE(std::string(e.what()).find("--keep-going"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(harness.Counters().at("harness.worker.retries"), 1u);
  EXPECT_EQ(harness.Counters().at("harness.worker.failures.signal"), 1u);
}

TEST(Harness, KeepGoingRecordsAnErrorRowAndJournalsTheFailure) {
  TempDir dir;
  Fixture f;
  HarnessOptions options;
  options.isolate = true;
  options.keep_going = true;
  options.journal_path = dir.File("run.jsonl");
  PointHarness harness(options, "0123456789abcdef");
  ScenarioContext ctx = f.Ctx(&harness);

  ResultSet results("keep-going");
  ResultTable& table =
      results.AddTable("sweep", {"config", "metric a", "metric b"});
  RunPointRow(ctx, table, "ok-point", 1, "n=1",
              [](const ScenarioContext&, const PointEnv&) {
                return std::vector<std::string>{"n=1", "1.0", "2.0"};
              });
  RunPointRow(ctx, table, "crash-point", 2, "n=2",
              [](const ScenarioContext&, const PointEnv&)
                  -> std::vector<std::string> {
                ::raise(SIGKILL);
                return {};
              });
  RunPointRow(ctx, table, "late-point", 3, "n=3",
              [](const ScenarioContext&, const PointEnv&) {
                return std::vector<std::string>{"n=3", "5.0", "6.0"};
              });

  // The sweep shape survives: three rows, the failed one explicit.
  ASSERT_EQ(table.rows.size(), 3u);
  EXPECT_EQ(table.rows[0],
            (std::vector<std::string>{"n=1", "1.0", "2.0"}));
  EXPECT_EQ(table.rows[1][0], "n=2");
  EXPECT_EQ(table.rows[1][1], "error: signal (1 attempt)");
  EXPECT_EQ(table.rows[1][2], "-");
  EXPECT_EQ(table.rows[2],
            (std::vector<std::string>{"n=3", "5.0", "6.0"}));

  ASSERT_EQ(harness.Failures().size(), 1u);
  EXPECT_EQ(harness.Failures()[0].point, "crash-point");
  EXPECT_EQ(harness.Failures()[0].failure, "signal");

  // The journaled failure replays verbatim on resume (same error row),
  // still counted as a failure so the exit summary stays nonzero.
  options.resume = true;
  PointHarness resumed(options, "0123456789abcdef");
  const PointOutcome replayed = resumed.RunPoint(
      "crash-point", 2, [](const PointEnv&) { return std::string("?"); });
  EXPECT_TRUE(replayed.replayed);
  EXPECT_FALSE(replayed.ok);
  EXPECT_EQ(replayed.failure, "signal");
  ASSERT_EQ(resumed.Failures().size(), 1u);
}

TEST(Harness, RowArityMismatchIsANamedError) {
  Fixture f;
  HarnessOptions options;
  options.keep_going = true;  // harness active, but inline (no fork)
  PointHarness harness(options, "0123456789abcdef");
  ScenarioContext ctx = f.Ctx(&harness);
  ResultSet results("arity");
  ResultTable& table = results.AddTable("t", {"a", "b"});
  try {
    RunPointRow(ctx, table, "p", 1, "p",
                [](const ScenarioContext&, const PointEnv&) {
                  return std::vector<std::string>{"only one"};
                });
    FAIL() << "arity mismatch not detected";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("cells"), std::string::npos);
  }
}

TEST(Harness, ResumeRequiresAJournalPath) {
  Fixture f;
  HarnessOptions options;
  options.resume = true;
  EXPECT_THROW(PointHarness(options, "0123456789abcdef"),
               util::Error);
}

TEST(Fsio, AtomicWriteLeavesNoTempFileBehind) {
  TempDir dir;
  const std::string path = dir.File("out.json");
  util::AtomicWriteFile(path, "{\"ok\":true}\n");
  std::ifstream in(path, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "{\"ok\":true}\n");
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // Overwrite is atomic too: the new content fully replaces the old.
  util::AtomicWriteFile(path, "v2");
  std::ifstream in2(path, std::ios::binary);
  std::stringstream content2;
  content2 << in2.rdbuf();
  EXPECT_EQ(content2.str(), "v2");
}

TEST(Fsio, RequireWritableDirNamesTheFlagAndTheMissingDirectory) {
  try {
    util::RequireWritableDir("/no/such/dir/metrics.json", "--metrics");
    FAIL() << "missing directory not rejected";
  } catch (const util::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--metrics"), std::string::npos) << what;
    EXPECT_NE(what.find("/no/such/dir"), std::string::npos) << what;
    EXPECT_NE(what.find("does not exist"), std::string::npos) << what;
  }
  // A bare filename targets the current directory, which exists.
  EXPECT_NO_THROW(util::RequireWritableDir("plain.json", "--journal"));
}

}  // namespace
}  // namespace wsn::scenario
