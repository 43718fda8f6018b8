#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "support/require.hpp"

namespace bzc {

ThreadPool& trialPool() noexcept {
  static ThreadPool inlinePool(1);
  return ThreadPool::trial_ != nullptr ? *ThreadPool::trial_ : inlinePool;
}

ThreadPool::ThreadPool(unsigned threads) {
  BZC_REQUIRE(threads <= kMaxPoolThreads, "thread count above kMaxPoolThreads");
  if (threads == 0) threads = std::clamp(std::thread::hardware_concurrency(), 1u, kMaxPoolThreads);
  threads_ = threads;
  workers_.reserve(threads_ - 1);
  for (unsigned t = 1; t < threads_; ++t) {
    // Tasks drain even during shutdown so submitted futures never break.
    workers_.emplace_back(
        [this] { serve([this] { return stopping_ && tasks_.empty() && helpers_.empty(); }); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

// Shared with the helpers. One that starts after the caller found no helper
// running finds the cursor spent and never touches the body, so it may run
// after the caller's frame is gone. `running` and `error` are guarded by the
// pool's mutex.
struct ThreadPool::FanOut {
  std::atomic<std::size_t> cursor{0};
  unsigned running = 0;
  std::exception_ptr error;
  bool serving = false;              ///< the caller sleeps on the pool's wake_
  std::condition_variable finished;  ///< else on this
};

void ThreadPool::parallelFor(std::size_t count, unsigned helpers,
                             const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  helpers = static_cast<unsigned>(std::min<std::size_t>({helpers, workers_.size(), count - 1}));
  if (helpers == 0) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  const auto fan = std::make_shared<FanOut>();
  fan->serving = trial_ != this;
  const auto share = [this, &body, count](FanOut& f) {
    try {
      for (std::size_t i; (i = f.cursor.fetch_add(1, std::memory_order_relaxed)) < count;) body(i);
    } catch (...) {
      f.cursor.store(count);  // abandon the rest, so no late helper runs `body`
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!f.error) f.error = std::current_exception();
    }
  };
  for (unsigned h = 0; h < helpers; ++h) {
    enqueue(helpers_, [this, fan, share, home = trial_] {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++fan->running;
      }
      const TrialPoolScope scope(home);
      share(*fan);
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--fan->running == 0) fan->serving ? wake_.notify_all() : fan->finished.notify_all();
    });
  }
  share(*fan);
  if (fan->serving) {
    // The runner's caller keeps working in the tail: a helper may hold the
    // only trial in flight, whose tasks need this thread.
    serve([&] { return fan->running == 0; });
  } else {
    std::unique_lock<std::mutex> lock(mutex_);
    fan->finished.wait(lock, [&] { return fan->running == 0; });
  }
  if (fan->error) std::rethrow_exception(fan->error);
}

void ThreadPool::enqueue(std::deque<std::function<void()>>& queue, std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::serve(const std::function<bool()>& finished) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    ++idle_;
    wake_.wait(lock, [&] { return finished() || !helpers_.empty() || !tasks_.empty(); });
    --idle_;
    if (finished()) return;
    std::deque<std::function<void()>>& queue = helpers_.empty() ? tasks_ : helpers_;
    std::function<void()> task = std::move(queue.front());
    queue.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

bool ThreadPool::runQueuedTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop_front();
  }
  task();
  return true;
}

}  // namespace bzc
