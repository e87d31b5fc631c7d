#include "scenario/harness.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace wsn::scenario {

namespace {

constexpr const char* kJournalSchema = "wsn-journal-v1";

const std::string& RequireString(const util::JsonValue& record,
                                 const std::string& key) {
  const util::JsonValue* v = record.Find(key);
  util::Require(v != nullptr && v->is_string(),
                "journal record missing string field '" + key + "'");
  return v->AsString();
}

std::uint64_t RequireUInt(const util::JsonValue& record,
                          const std::string& key) {
  const util::JsonValue* v = record.Find(key);
  util::Require(v != nullptr && v->is_number(),
                "journal record missing numeric field '" + key + "'");
  const double n = v->AsNumber();
  util::Require(n >= 0 && n == std::floor(n),
                "journal record field '" + key + "' is not a whole number");
  return static_cast<std::uint64_t>(n);
}

/// Inverse of WorkerFailureName, for re-raising journaled/stringified
/// failures with their taxonomy code intact.
util::WorkerFailure FailureFromName(const std::string& name) {
  using F = util::WorkerFailure;
  for (const F f : {F::kSignal, F::kNonZeroExit, F::kTimeout, F::kOom,
                    F::kMalformedResult}) {
    if (name == util::WorkerFailureName(f)) return f;
  }
  return F::kNone;
}

}  // namespace

std::string EncodeCells(const std::vector<std::string>& cells) {
  util::JsonWriter w(0);
  w.BeginArray();
  for (const std::string& cell : cells) w.String(cell);
  w.EndArray();
  return w.Str();
}

std::vector<std::string> DecodeCells(const std::string& payload) {
  const util::JsonValue doc = util::ParseJson(payload);
  util::Require(doc.is_array(), "journal payload is not a JSON array");
  std::vector<std::string> cells;
  cells.reserve(doc.Items().size());
  for (const util::JsonValue& item : doc.Items()) {
    util::Require(item.is_string(), "journal payload cell is not a string");
    cells.push_back(item.AsString());
  }
  return cells;
}

PointHarness::PointHarness(const HarnessOptions& options,
                           const std::string& run_id_hex)
    : options_(options), run_id_(run_id_hex) {
  util::Require(!options_.resume || !options_.journal_path.empty(),
                "--resume requires --journal PATH");
  if (options_.journal_path.empty()) return;
  util::RequireWritableDir(options_.journal_path, "--journal");
  if (options_.resume) LoadJournal();
  // Without --resume a fresh run owns the file: truncate, don't append
  // stale records from an unrelated earlier run.
  const int flags =
      O_WRONLY | O_CREAT | (options_.resume ? O_APPEND : O_TRUNC);
  journal_fd_ = ::open(options_.journal_path.c_str(), flags, 0644);
  if (journal_fd_ < 0) {
    throw util::Error("--journal: cannot open '" + options_.journal_path +
                      "' (" + std::strerror(errno) + ")");
  }
}

PointHarness::~PointHarness() {
  if (journal_fd_ >= 0) ::close(journal_fd_);
}

void PointHarness::LoadJournal() {
  std::ifstream in(options_.journal_path, std::ios::binary);
  if (!in) return;  // nothing completed yet: resume from zero
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const bool last = in.peek() == std::ifstream::traits_type::eof();
    util::JsonValue record;
    try {
      record = util::ParseJson(line);
      util::Require(RequireString(record, "schema") == kJournalSchema,
                    "unknown journal schema");
    } catch (const std::exception& e) {
      // A torn final line is the expected signature of the crash being
      // resumed from — the record fsync'd before it is still intact.
      // Corruption anywhere else means the file is not trustworthy.
      if (last) {
        (util::LogWarn() << "journal: skipping torn final record")
            .Kv("path", options_.journal_path)
            .Kv("line", line_no);
        break;
      }
      throw util::Error("--resume: corrupt journal record at " +
                        options_.journal_path + ":" +
                        std::to_string(line_no) + " (" + e.what() + ")");
    }
    const std::string& run = RequireString(record, "run");
    if (run != run_id_) {
      throw util::Error(
          "--resume: journal '" + options_.journal_path +
          "' was written by a different run configuration (journal run id " +
          run + ", this run " + run_id_ +
          "); pass a fresh --journal path or re-run the original command "
          "line");
    }
    JournalEntry entry;
    const std::string& status = RequireString(record, "status");
    if (status == "ok") {
      entry.ok = true;
      entry.payload = RequireString(record, "payload");
      const std::string& want = RequireString(record, "hash");
      const std::string got = util::HexU64(util::Fnv1a64(entry.payload));
      if (want != got) {
        throw util::Error("--resume: journal payload hash mismatch at " +
                          options_.journal_path + ":" +
                          std::to_string(line_no) + " (recorded " + want +
                          ", payload hashes to " + got + ")");
      }
    } else if (status == "error") {
      entry.ok = false;
      entry.failure = RequireString(record, "failure");
      entry.attempts = static_cast<std::size_t>(RequireUInt(record, "attempts"));
      entry.detail = RequireString(record, "detail");
    } else {
      throw util::Error("--resume: journal record with unknown status '" +
                        status + "' at " + options_.journal_path + ":" +
                        std::to_string(line_no));
    }
    // Later records win: a --keep-going error row re-run to success on a
    // previous resume appears twice, and the success must stick.
    completed_[RequireString(record, "point")] = std::move(entry);
  }
}

void PointHarness::AppendRecord(const std::string& key, std::uint64_t seed,
                                const JournalEntry& entry) {
  if (journal_fd_ < 0) return;
  util::JsonWriter w(0);
  w.BeginObject();
  w.Key("schema").String(kJournalSchema);
  w.Key("run").String(run_id_);
  w.Key("point").String(key);
  w.Key("seed").UInt(seed);
  w.Key("status").String(entry.ok ? "ok" : "error");
  if (entry.ok) {
    w.Key("payload").String(entry.payload);
    w.Key("hash").String(util::HexU64(util::Fnv1a64(entry.payload)));
  } else {
    w.Key("failure").String(entry.failure);
    w.Key("attempts").UInt(entry.attempts);
    w.Key("detail").String(entry.detail);
  }
  w.EndObject();
  const std::string line = w.Str() + "\n";
  const char* data = line.data();
  std::size_t size = line.size();
  while (size > 0) {
    const ssize_t n = ::write(journal_fd_, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw util::Error("--journal: write to '" + options_.journal_path +
                        "' failed (" + std::strerror(errno) + ")");
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  // One fsync per record is the durability contract: a SIGKILL at any
  // instant loses at most the point in flight, never a completed one.
  if (::fsync(journal_fd_) != 0) {
    throw util::Error("--journal: fsync of '" + options_.journal_path +
                      "' failed (" + std::strerror(errno) + ")");
  }
}

PointOutcome PointHarness::Execute(const std::string& key, const PointFn& fn) {
  PointOutcome outcome;
  if (!Isolating()) {
    outcome.payload = fn(PointEnv{});
    outcome.ok = true;
    return outcome;
  }
  util::WorkerLimits limits;
  limits.deadline_s = options_.deadline_s;
  limits.rss_limit_mb = options_.rss_limit_mb;
  util::RetryPolicy policy;
  policy.max_attempts = options_.retries + 1;
  policy.base_backoff_s = options_.backoff_s;
  policy.backoff_growth = options_.backoff_growth;
  const util::WorkerResult result = util::RunWithRetry(
      [&fn](std::size_t attempt) {
        PointEnv env;
        env.attempt = attempt;
        env.isolated = true;
        return fn(env);
      },
      limits, policy,
      [this, &key, &policy](std::size_t attempt,
                            const util::WorkerResult& failed) {
        if (attempt + 1 < policy.max_attempts) {
          ++retries_;
          (util::LogWarn() << "point failed; retrying")
              .Kv("point", key)
              .Kv("attempt", attempt + 1)
              .Kv("failure", failed.Describe());
        }
      });
  outcome.attempts = policy.max_attempts;
  if (result.Ok()) {
    outcome.ok = true;
    outcome.payload = result.payload;
  } else {
    outcome.failure = util::WorkerFailureName(result.failure);
    outcome.detail = result.Describe();
  }
  return outcome;
}

PointOutcome PointHarness::RunPoint(const std::string& key, std::uint64_t seed,
                                    const PointFn& fn) {
  const auto it = completed_.find(key);
  if (it != completed_.end()) {
    ++replayed_;
    PointOutcome outcome;
    outcome.replayed = true;
    outcome.ok = it->second.ok;
    if (it->second.ok) {
      outcome.payload = it->second.payload;
    } else {
      // A journaled failure replays verbatim (same taxonomy, attempts
      // and detail): resume reproduces the interrupted run's output
      // byte for byte, it does not silently re-try the point.
      outcome.failure = it->second.failure;
      outcome.detail = it->second.detail;
      outcome.attempts = it->second.attempts;
      ++failed_;
      ++failure_kinds_[it->second.failure];
      failures_.push_back(
          {key, it->second.failure, it->second.attempts, it->second.detail});
      if (!options_.keep_going) {
        throw util::WorkerError(
            FailureFromName(it->second.failure),
            "point '" + key + "' failed in the journaled run: " +
                outcome.detail +
                " (re-run without --resume to retry it)");
      }
    }
    return outcome;
  }

  PointOutcome outcome = Execute(key, fn);
  if (outcome.ok) {
    ++executed_;
    JournalEntry entry;
    entry.ok = true;
    entry.payload = outcome.payload;
    AppendRecord(key, seed, entry);
    return outcome;
  }
  ++failed_;
  ++failure_kinds_[outcome.failure];
  failures_.push_back({key, outcome.failure, outcome.attempts, outcome.detail});
  if (!options_.keep_going) {
    throw util::WorkerError(
        FailureFromName(outcome.failure),
        "point '" + key + "' failed after " +
            std::to_string(outcome.attempts) + " attempt" +
            (outcome.attempts == 1 ? "" : "s") + ": " + outcome.detail +
            " (pass --keep-going to record an error row and continue)");
  }
  JournalEntry entry;
  entry.ok = false;
  entry.failure = outcome.failure;
  entry.attempts = outcome.attempts;
  entry.detail = outcome.detail;
  AppendRecord(key, seed, entry);
  return outcome;
}

std::map<std::string, std::uint64_t> PointHarness::Counters() const {
  std::map<std::string, std::uint64_t> counters;
  counters["harness.points.executed"] = executed_;
  counters["harness.points.replayed"] = replayed_;
  counters["harness.points.failed"] = failed_;
  counters["harness.worker.retries"] = retries_;
  for (const auto& [kind, count] : failure_kinds_) {
    counters["harness.worker.failures." + kind] = count;
  }
  return counters;
}

void RunPointRow(const ScenarioContext& ctx, ResultTable& table,
                 const std::string& key, std::uint64_t seed,
                 const std::string& label,
                 const std::function<std::vector<std::string>(
                     const ScenarioContext&, const PointEnv&)>& fn) {
  if (ctx.harness == nullptr) {
    table.AddRow(fn(ctx, PointEnv{}));
    return;
  }
  const std::size_t width = table.headers.size();
  const bool isolating = ctx.harness->Isolating();
  const PointOutcome outcome = ctx.harness->RunPoint(
      key, seed, [&ctx, &fn, width, isolating](const PointEnv& env) {
        ScenarioContext sub = ctx;
        sub.harness = nullptr;
        // A forked worker cannot contribute to the parent's obs session;
        // metrics cover inline-executed points only (docs/robustness.md).
        if (isolating) sub.obs = nullptr;
        const std::vector<std::string> cells = fn(sub, env);
        util::Require(cells.size() == width,
                      "point produced " + std::to_string(cells.size()) +
                          " cells for a " + std::to_string(width) +
                          "-column table");
        return EncodeCells(cells);
      });
  if (outcome.ok) {
    table.AddRow(DecodeCells(outcome.payload));
    return;
  }
  // --keep-going degraded row: the sweep shape is preserved and the
  // failure is explicit in the output, not just on stderr.
  std::vector<std::string> row(width, "-");
  row[0] = label;
  if (width > 1) {
    row[1] = "error: " + outcome.failure + " (" +
             std::to_string(outcome.attempts) + " attempt" +
             (outcome.attempts == 1 ? "" : "s") + ")";
  }
  table.AddRow(row);
}

}  // namespace wsn::scenario
