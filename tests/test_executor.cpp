// ParallelExecutor: every index exactly once, inline and degenerate
// cases, ordering, seeded streams, deterministic failure surfacing, and
// the thread lifecycle (threads live only inside a call).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "util/executor.hpp"
#include "util/rng.hpp"
#include "util/subproc.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WSN_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define WSN_UNDER_SANITIZER 1
#endif
#endif
#ifndef WSN_UNDER_SANITIZER
#define WSN_UNDER_SANITIZER 0
#endif

namespace wsn::util {
namespace {

/// Threads of this process right now (entries of /proc/self/task).
std::size_t TaskCount() {
  const std::filesystem::directory_iterator it("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(begin(it), end(it)));
}

/// TaskCount() once it equals `expected`, or after 2 s.  The kernel can
/// still list a thread for a moment after pthread_join returns.
std::size_t SettledTaskCount(std::size_t expected) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::size_t count = TaskCount();
  while (count != expected && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    count = TaskCount();
  }
  return count;
}

/// Virtual size of this process in kB (VmSize of /proc/self/status).
std::size_t VmSizeKb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmSize:") {
      std::size_t kb = 0;
      in >> kb;
      return kb;
    }
    in.ignore(1 << 20, '\n');
  }
  return 0;
}

TEST(ParallelExecutor, ThreadCountAsRequested) {
  EXPECT_EQ(ParallelExecutor(3).ThreadCount(), 3u);
}

TEST(ParallelExecutor, DefaultWidthIsAtLeastOne) {
  const ParallelExecutor executor;
  EXPECT_GE(executor.ThreadCount(), 1u);
  EXPECT_EQ(ParallelExecutor(0).ThreadCount(), executor.ThreadCount());
}

TEST(ParallelExecutor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> visits(1000);
  ParallelExecutor(8).RunIndexed(1000, [&](std::size_t i) { ++visits[i]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelExecutor, ZeroJobsIsANoop) {
  ParallelExecutor(4).RunIndexed(
      0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelExecutor, SingleJobRunsInlineOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  ParallelExecutor(4).RunIndexed(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(ParallelExecutor, SerialWhenOneThread) {
  const ParallelExecutor executor(1);
  EXPECT_EQ(executor.ThreadCount(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  const std::vector<char> on_caller = executor.Map(
      5, [&](std::size_t) -> char {
        return std::this_thread::get_id() == caller;
      });
  EXPECT_EQ(on_caller, std::vector<char>(5, 1));
}

TEST(ParallelExecutor, MapKeepsIndexOrder) {
  ParallelExecutor executor(4);
  const std::vector<std::size_t> out =
      executor.Map(100, [](std::size_t i) { return i * 3; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 3);
}

TEST(ParallelExecutor, ReusableAcrossCalls) {
  ParallelExecutor executor(4);
  std::atomic<int> counter{0};
  executor.RunIndexed(50, [&](std::size_t) { ++counter; });
  executor.RunIndexed(50, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelExecutor, RunsWidthJobsConcurrently) {
  // Four jobs that each wait for all four to have started can only
  // finish if the caller and three spawned threads run them at once.
  std::atomic<int> started{0};
  const std::vector<char> met = ParallelExecutor(4).Map(
      4, [&](std::size_t) -> char {
        ++started;
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (started.load() < 4) {
          if (std::chrono::steady_clock::now() > give_up) return 0;
          std::this_thread::yield();
        }
        return 1;
      });
  EXPECT_EQ(met, std::vector<char>(4, 1));
}

TEST(ParallelExecutor, LeavesNoThreadsBehind) {
  // The executor holds no threads between calls: a process whose
  // executors are idle is single-threaded again, so fork() is safe.
  // A sanitizer runtime may start a helper thread at the process's
  // first spawn, so spawn once (and let the kernel reap that thread)
  // before taking the baseline.
  std::thread([] {}).join();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::size_t before = TaskCount();
  const ParallelExecutor executor(4);
  const std::vector<std::size_t> out =
      executor.Map(64, [](std::size_t i) { return i + 1; });
  EXPECT_EQ(out.back(), 64u);
  EXPECT_EQ(SettledTaskCount(before), before);
}

TEST(ParallelExecutor, SpawnFailureStillRunsEveryJob) {
  if (WSN_UNDER_SANITIZER) {
    GTEST_SKIP() << "RLIMIT_AS breaks sanitizer shadow memory";
  }
  // A worker whose address space is capped 1-2 MB above its current
  // size has no room for a new thread stack, only for the ones the C
  // library cached from threads already joined.  Parking threads until
  // a spawn fails uses those up; then every spawn inside RunIndexed
  // fails and the caller alone must run all the jobs.
  WorkerLimits limits;
  limits.rss_limit_mb = VmSizeKb() / 1024 + 2;
  const WorkerResult result = RunInWorker(
      [] {
        constexpr std::size_t kMaxParked = 64;
        std::atomic<bool> release{false};
        std::vector<std::thread> parked;
        parked.reserve(kMaxParked);
        try {
          while (parked.size() < kMaxParked) {
            parked.emplace_back([&release] {
              while (!release.load()) std::this_thread::yield();
            });
          }
        } catch (const std::system_error&) {
        }
        std::vector<std::thread::id> ran_on(16);
        ParallelExecutor(4).RunIndexed(16, [&](std::size_t i) {
          ran_on[i] = std::this_thread::get_id();
        });
        release = true;
        for (std::thread& t : parked) t.join();
        if (parked.size() == kMaxParked) return std::string("no spawn failed");
        const std::set<std::thread::id> distinct(ran_on.begin(),
                                                 ran_on.end());
        return std::to_string(distinct.size()) +
               (distinct.count(std::this_thread::get_id()) ? " caller"
                                                           : " other");
      },
      limits);
  ASSERT_TRUE(result.Ok()) << result.Describe();
  EXPECT_EQ(result.payload, "1 caller");
}

TEST(ParallelExecutor, SeededStreamsMatchSerialAndParallel) {
  // The i-th job's randomness is a pure function of (seed, i): the draw
  // sequence must be identical whatever the thread count.
  const auto draw = [](ParallelExecutor& executor) {
    return executor.MapSeeded(
        16, 2008, [](std::size_t, Rng rng) { return rng(); });
  };
  ParallelExecutor serial(1);
  ParallelExecutor parallel(8);
  EXPECT_EQ(draw(serial), draw(parallel));
}

TEST(ParallelExecutor, SurfacesLowestIndexFailureDeterministically) {
  // Several jobs fail; no matter which thread hits its error first, the
  // rethrown exception is always the lowest failing index's.
  ParallelExecutor executor(8);
  for (int attempt = 0; attempt < 5; ++attempt) {
    try {
      executor.RunIndexed(64, [](std::size_t i) {
        if (i == 7 || i == 23 || i == 55) {
          throw std::runtime_error("failed at " + std::to_string(i));
        }
      });
      FAIL() << "expected a failure to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "failed at 7");
    }
  }
}

TEST(ParallelExecutor, RunsEveryJobDespiteFailures) {
  ParallelExecutor executor(4);
  std::atomic<int> started{0};
  EXPECT_THROW(executor.RunIndexed(32,
                                   [&](std::size_t i) {
                                     ++started;
                                     if (i % 2 == 0) {
                                       throw std::runtime_error("even");
                                     }
                                   }),
               std::runtime_error);
  EXPECT_EQ(started.load(), 32);
}

}  // namespace
}  // namespace wsn::util
