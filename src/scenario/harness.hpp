/// \file
/// The sweep-point harness: crash isolation, deadlines/retry, the
/// durable run journal and --resume replay — the execution layer under
/// `wsnctl run` that makes a multi-hour sweep survive one bad point.
///
/// A *point* is the unit of isolation and journaling: one sweep cell
/// (one parameter combination) identified by a stable string key.  A
/// study runs each point through PointHarness::RunPoint, which
///   1. on --resume, replays the journaled payload byte-for-byte and
///      skips execution entirely;
///   2. otherwise runs the point — inline when no isolation feature is
///      on (zero-cost-when-off), or in a forked worker under the
///      deadline/RSS fence with the retry policy;
///   3. appends one fsync'd JSONL record to the journal, so a SIGKILL
///      at any instant loses at most the point in flight.
///
/// Journal record schema ("wsn-journal-v1", one compact JSON object per
/// line — see docs/robustness.md):
///   {"schema":"wsn-journal-v1","run":"<16-hex config hash>",
///    "point":"<key>","seed":<n>,"status":"ok",
///    "payload":"<rendered cells>","hash":"<16-hex FNV of payload>"}
/// or, for a point that exhausted its attempts under --keep-going:
///   {... "status":"error","failure":"<taxonomy name>",
///    "attempts":<n>,"detail":"<...>"}
///
/// A point function fans out on the executor it already has: an
/// executor holds no threads between calls, so the same object works
/// inline and inside a forked worker.  RunPointRow packages the common
/// study shape (one point = one table row, cells encoded as a JSON
/// string array) including the --keep-going error-row rendering.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "scenario/result.hpp"
#include "scenario/scenario.hpp"
#include "util/subproc.hpp"

namespace wsn::scenario {

/// Harness configuration, straight from the wsnctl global flags.
struct HarnessOptions {
  bool isolate = false;          ///< --isolate: fork a worker per point
  double deadline_s = 0.0;       ///< --deadline (implies isolation)
  std::size_t rss_limit_mb = 0;  ///< --rss-limit (implies isolation)
  std::size_t retries = 0;       ///< --retries (implies isolation)
  double backoff_s = 0.25;       ///< --backoff: first retry delay
  double backoff_growth = 2.0;   ///< retry delay multiplier
  bool keep_going = false;       ///< --keep-going: error rows, not aborts
  std::string journal_path;      ///< --journal PATH ("" = off)
  bool resume = false;           ///< --resume: replay completed points

  /// Any flag that needs a forked worker turns isolation on.
  bool Isolating() const {
    return isolate || deadline_s > 0.0 || rss_limit_mb > 0 || retries > 0;
  }
};

/// What a point function runs under.
struct PointEnv {
  std::size_t attempt = 0;  ///< 0 on the first try, 1.. on retries
  bool isolated = false;    ///< running inside a forked worker
};

/// One point's work: produce the payload string (for studies, the
/// JSON-encoded row cells) deterministically from its inputs.
using PointFn = std::function<std::string(const PointEnv&)>;

/// Result of RunPoint.
struct PointOutcome {
  bool ok = false;
  bool replayed = false;  ///< payload came from the journal, not execution
  std::string payload;
  std::string failure;  ///< taxonomy name when !ok ("" otherwise)
  std::string detail;
  std::size_t attempts = 1;
};

/// One exhausted point, for the "harness-errors" table and exit code 3.
struct PointFailure {
  std::string point;
  std::string failure;  ///< taxonomy name
  std::size_t attempts = 1;
  std::string detail;
};

/// Drives every point of one run: owns the journal file and the resume
/// replay map, applies isolation/retry, and accumulates the failure
/// list and counters the driver reports.  Not thread-safe: studies call
/// RunPoint from the sweep loop (parallelism lives *inside* a point,
/// across replications).
class PointHarness {
 public:
  /// `run_id_hex` is the 16-hex FNV hash of the run configuration —
  /// journal records carry it, and --resume refuses a journal written
  /// by a different configuration.  Opens (and on --resume first loads)
  /// the journal; throws on unwritable paths, corrupt records or a
  /// run-id mismatch.
  PointHarness(const HarnessOptions& options, const std::string& run_id_hex);
  ~PointHarness();
  PointHarness(const PointHarness&) = delete;
  PointHarness& operator=(const PointHarness&) = delete;

  /// Run (or replay) one point.  Throws util::WorkerError when the
  /// point exhausts its attempts and --keep-going is off; with
  /// --keep-going returns an outcome with ok=false instead.
  PointOutcome RunPoint(const std::string& key, std::uint64_t seed,
                        const PointFn& fn);

  bool Isolating() const { return options_.Isolating(); }
  const std::vector<PointFailure>& Failures() const { return failures_; }

  /// Counters for the obs metrics registry and the end-of-run log line:
  /// harness.points.{executed,replayed,failed}, harness.worker.retries,
  /// harness.worker.failures.<taxonomy>.
  std::map<std::string, std::uint64_t> Counters() const;

 private:
  struct JournalEntry {
    bool ok = false;
    std::string payload;          // status ok
    std::string failure;          // status error
    std::size_t attempts = 1;     // status error
    std::string detail;           // status error
  };

  void LoadJournal();
  void AppendRecord(const std::string& key, std::uint64_t seed,
                    const JournalEntry& entry);
  PointOutcome Execute(const std::string& key, const PointFn& fn);

  HarnessOptions options_;
  std::string run_id_;
  int journal_fd_ = -1;
  std::map<std::string, JournalEntry> completed_;
  std::vector<PointFailure> failures_;
  std::uint64_t executed_ = 0;
  std::uint64_t replayed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retries_ = 0;
  std::map<std::string, std::uint64_t> failure_kinds_;
};

/// The study-side idiom: run `fn` as the point named `key` and append
/// its cells to `table`.  With no harness on the context the function
/// runs directly on the driver's executor and the row is appended as-is
/// — byte-for-byte the pre-harness behavior.  With a harness, the cells
/// round-trip through the payload encoding (a compact JSON string
/// array), and a point that fails under --keep-going appends an
/// explicit error row: `label`, "error: <taxonomy> (N attempts)", then
/// "-" for every remaining column.
///
/// `fn` receives a sub-context sharing the parent's args and executor,
/// without the harness; under isolation obs is null (a forked
/// child cannot contribute to the parent's session — replayed and
/// isolated points are absent from --metrics, see docs/robustness.md).
void RunPointRow(const ScenarioContext& ctx, ResultTable& table,
                 const std::string& key, std::uint64_t seed,
                 const std::string& label,
                 const std::function<std::vector<std::string>(
                     const ScenarioContext&, const PointEnv&)>& fn);

/// Encode row cells as the journal payload (compact JSON string array).
std::string EncodeCells(const std::vector<std::string>& cells);
/// Inverse of EncodeCells; throws InvalidArgument on malformed payloads.
std::vector<std::string> DecodeCells(const std::string& payload);

}  // namespace wsn::scenario
