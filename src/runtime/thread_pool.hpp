// Fixed-size worker pool for cursor fan-outs over an index range and
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

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace bzc {

/// Upper bound on a pool's thread count; the BZC_THREADS knob shares it.
inline constexpr unsigned kMaxPoolThreads = 1024;

class ThreadPool {
 public:
  /// threads == 0 picks the hardware concurrency, at most kMaxPoolThreads;
  /// more throws before any thread starts. One worker means no extra threads
  /// at all: parallelFor runs inline on the caller, and submit() executes the
  /// task immediately at the call site.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned threadCount() const noexcept { return threads_; }

  /// Queues one task for asynchronous execution on a worker and returns the
  /// future for its result (the epoch pipeline's recounts ride this). The
  /// caller does NOT participate at submit and does not block; it lends its
  /// thread only later, through wait(). The task runs with the submitting
  /// thread's trialPool(), whichever thread takes it. On a single-thread pool
  /// the task executes inline before submit returns. Pending tasks still run
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
    enqueue(tasks_, [task, home = trial_] {
      const TrialPoolScope scope(home);
      (*task)();  // packaged_task traps exceptions into its own future
    });
    return fut;
  }

  /// Returns fut's result (rethrowing a task's exception), running queued
  /// submit() tasks (any trial's) on the calling thread until fut is ready;
  /// a task that waits on its own queued child runs it the same way. It
  /// never runs a parallelFor helper, so a thread inside a trial never
  /// starts another trial. Once no submit() task is queued the caller blocks
  /// until whoever holds fut's task finishes it.
  template <typename R>
  R wait(std::future<R>& fut) {
    while (fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready &&
           runQueuedTask()) {
    }
    return fut.get();
  }

  /// Pool threads waiting for work right now (idle workers and a serving
  /// parallelFor caller): how many helpers a parallelFor can use. A hint,
  /// stale as soon as it returns.
  [[nodiscard]] unsigned idleThreads() const noexcept {
    return idle_.load(std::memory_order_relaxed);
  }

  /// Runs body(0) .. body(count-1): the caller and up to `helpers` queued
  /// helpers share one atomic cursor over the indices (at most count - 1
  /// helpers, so one index runs on the caller alone). Once its own share is
  /// done, a caller inside one of this pool's trials (trialPool() is this
  /// pool: Algorithm 1's per-node passes) waits only for the helpers that
  /// already started; any other caller (the runner's trial loop) serves the
  /// queues like a worker until those helpers are done. The cursor is spent
  /// by then, so a helper that starts later does nothing and may outlive
  /// this call. With no helpers (or a one-thread pool) the loop runs inline.
  /// The first exception thrown by a body abandons the indices not yet
  /// started and is rethrown once the running helpers finish. Calls nest.
  void parallelFor(std::size_t count, unsigned helpers,
                   const std::function<void(std::size_t)>& body);

  /// RAII install of the pool trialPool() returns on this thread (nullptr:
  /// the inline pool); restores the previous one, like obs::TraceScope.
  class TrialPoolScope {
   public:
    explicit TrialPoolScope(ThreadPool* pool) noexcept : prev_(std::exchange(trial_, pool)) {}
    ~TrialPoolScope() { trial_ = prev_; }
    TrialPoolScope(const TrialPoolScope&) = delete;
    TrialPoolScope& operator=(const TrialPoolScope&) = delete;

   private:
    ThreadPool* prev_;
  };

 private:
  struct FanOut;
  void enqueue(std::deque<std::function<void()>>& queue, std::function<void()> task);
  /// Runs queued work here, helpers first, until `finished()` holds (checked
  /// under the lock); sleeps while both queues are empty.
  void serve(const std::function<bool()>& finished);
  /// Pops one submit() task and runs it here, like a worker would; false
  /// when that queue is empty.
  bool runQueuedTask();
  friend ThreadPool& trialPool() noexcept;

  static inline thread_local ThreadPool* trial_ = nullptr;  ///< nullptr: the inline pool

  unsigned threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable wake_;
  std::atomic<unsigned> idle_{0};  ///< threads blocked waiting for work (see idleThreads())
  bool stopping_ = false;
  std::deque<std::function<void()>> tasks_;    ///< submit() queue, drained before stop
  std::deque<std::function<void()>> helpers_;  ///< parallelFor helpers; wait() never takes one
};

/// The pool the running trial spreads its own work over (DESIGN.md §5): in
/// an untraced ExperimentRunner trial, and in the tasks it submits, the
/// runner's pool; everywhere else (traced trials, code outside a runner) a
/// one-thread pool whose submit() and parallelFor run inline.
[[nodiscard]] ThreadPool& trialPool() noexcept;

}  // namespace bzc
