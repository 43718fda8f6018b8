// Fixed-size worker pool for embarrassingly parallel index loops and
// fire-and-collect task futures.
//
// Scheduling is dynamic (an atomic cursor hands out indices), so thread count
// and OS timing decide *who* runs an index but never *what* the index
// computes: determinism is the caller's job and comes from each index being a
// pure function of its input (the ExperimentRunner derives a forked RNG
// stream per trial index for exactly this reason). The same contract covers
// submit(): a task's result must be a pure function of what the caller moved
// into it, so completion order is invisible.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace bzc {

class ThreadPool {
 public:
  /// threads == 0 picks the hardware concurrency (at least 1). One worker
  /// means no extra threads at all: parallelFor runs inline on the caller,
  /// and submit() executes the task immediately at the call site.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned threadCount() const noexcept { return threads_; }

  /// Runs body(0) .. body(count-1) across the pool (the calling thread
  /// participates). Blocks until all indices finished; the first exception
  /// thrown by any body is rethrown here after the loop drains.
  void parallelFor(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Static-partition variant: splits [0, count) into at most threadCount()
  /// contiguous chunks and dispatches body(lo, hi) once per chunk — one
  /// std::function call per worker instead of one per index. For fine-grained
  /// loops (the runner's trial fan-out, Algorithm 1's per-node passes) the
  /// per-index virtual dispatch is the measurable cost (bench_f3 pins the
  /// ratio). Same blocking/exception semantics as parallelFor; the partition
  /// is a pure function of (count, threadCount()), and each index is still a
  /// pure function of its input, so chunking never affects results.
  void parallelForChunked(std::size_t count,
                          const std::function<void(std::size_t, std::size_t)>& body);

  /// Queues one task for asynchronous execution on a worker and returns the
  /// future for its result (the epoch pipeline's recount stage rides this).
  /// Unlike parallelFor, the caller does NOT participate and does not block:
  /// tasks run concurrently with whatever the caller does next. On a
  /// single-thread pool the task executes inline before submit returns — the
  /// depth-1 epoch pipeline's serial identity is this code path. All futures
  /// must be waited on before the pool is destroyed; pending tasks still run
  /// during shutdown, but nothing restarts a worker after join.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    if (workers_.empty()) {
      (*task)();
      return fut;
    }
    enqueue([task] { (*task)(); });
    return fut;
  }

 private:
  void workerLoop();
  void drain();
  void enqueue(std::function<void()> task);

  unsigned threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t jobCount_ = 0;
  std::atomic<std::size_t> cursor_{0};
  std::size_t activeWorkers_ = 0;
  std::uint64_t generation_ = 0;
  bool stopping_ = false;
  std::exception_ptr firstError_;
  std::deque<std::function<void()>> tasks_;  ///< submit() queue, drained before stop
};

/// Worker budget of the trial this thread is running: how many threads the
/// trial may occupy for its own intra-trial passes. ExperimentRunner installs
/// max(1, pool threads / trials) around every trial (DESIGN.md §5); anywhere
/// else it is 1. Like the pool's index contract, the budget may decide how
/// many threads compute a result, never what the result is.
[[nodiscard]] unsigned trialWorkerBudget() noexcept;

/// RAII install of a worker budget on this thread (nests: restores the
/// previous budget, like obs::TraceScope).
class WorkerBudgetScope {
 public:
  explicit WorkerBudgetScope(unsigned workers) noexcept;
  ~WorkerBudgetScope();
  WorkerBudgetScope(const WorkerBudgetScope&) = delete;
  WorkerBudgetScope& operator=(const WorkerBudgetScope&) = delete;

 private:
  unsigned prev_;
};

}  // namespace bzc
