#include "util/executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace wsn::util {

ParallelExecutor::ParallelExecutor(std::size_t threads)
    : width_(threads != 0
                 ? threads
                 : std::max<std::size_t>(1,
                                         std::thread::hardware_concurrency())) {
}

void ParallelExecutor::RunIndexed(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  if (width_ == 1 || n <= 1) {
    // Inline: the first throw is by construction the lowest failing index.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Parallel: let every job run to completion, record failures per index,
  // then rethrow the lowest-index one — identical to what a serial run
  // would have surfaced first.
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t spawn = std::min(width_, n) - 1;
  std::vector<std::thread> threads;
  threads.reserve(spawn);
  try {
    while (threads.size() < spawn) threads.emplace_back(work);
  } catch (...) {
    // A spawn failed (out of threads or memory): the threads already
    // started and the caller still drain every index, and no result
    // depends on how many threads ran.
  }
  work();
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace wsn::util
