#include "runtime/thread_pool.hpp"

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
    workers_.emplace_back([this] { workerLoop(); });
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

void ThreadPool::parallelFor(std::size_t count, const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    BZC_CHECK(job_ == nullptr, "parallelFor is already running on this pool");
    job_ = &body;
    jobCount_ = count;
    cursor_.store(0, std::memory_order_relaxed);
    firstError_ = nullptr;
    activeWorkers_ = workers_.size();
    ++generation_;
  }
  wake_.notify_all();
  drain();  // the caller works too
  // Then it runs queued tasks until its workers are done: a worker may hold
  // the only trial in flight, whose tasks need this thread.
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    ++idle_;
    done_.wait(lock, [this] { return activeWorkers_ == 0 || !tasks_.empty(); });
    --idle_;
    if (activeWorkers_ == 0) break;
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
  job_ = nullptr;
  if (firstError_) {
    std::exception_ptr err = firstError_;
    firstError_ = nullptr;
    std::rethrow_exception(err);
  }
}

void ThreadPool::parallelForChunked(
    std::size_t count, const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t chunks = std::min<std::size_t>(threads_, count);
  const std::size_t width = (count + chunks - 1) / chunks;
  parallelFor(chunks, [&](std::size_t c) {
    const std::size_t lo = c * width;
    body(lo, std::min(count, lo + width));
  });
}

void ThreadPool::parallelForTasks(std::size_t count, unsigned helpers,
                                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  helpers = static_cast<unsigned>(std::min<std::size_t>({helpers, workers_.size(), count - 1}));
  if (helpers == 0) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  // Shared with the helpers. One that starts after the caller found no
  // helper running finds the cursor spent and never touches `body`, so it
  // may run after this frame is gone.
  struct FanOut {
    std::atomic<std::size_t> cursor{0};
    std::mutex mutex;
    std::condition_variable finished;
    unsigned running = 0;
    std::exception_ptr error;
  };
  const auto fan = std::make_shared<FanOut>();
  const auto share = [&body, count](FanOut& f) {
    try {
      for (std::size_t i; (i = f.cursor.fetch_add(1, std::memory_order_relaxed)) < count;) body(i);
    } catch (...) {
      f.cursor.store(count);  // abandon the rest, so no late helper runs `body`
      const std::lock_guard<std::mutex> lock(f.mutex);
      if (!f.error) f.error = std::current_exception();
    }
  };
  for (unsigned h = 0; h < helpers; ++h) {
    enqueue([fan, share, home = trial_] {
      {
        const std::lock_guard<std::mutex> lock(fan->mutex);
        ++fan->running;
      }
      const TrialPoolScope scope(home);
      share(*fan);
      const std::lock_guard<std::mutex> lock(fan->mutex);
      if (--fan->running == 0) fan->finished.notify_all();
    });
  }
  share(*fan);
  std::unique_lock<std::mutex> lock(fan->mutex);
  fan->finished.wait(lock, [&] { return fan->running == 0; });
  if (fan->error) std::rethrow_exception(fan->error);
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  wake_.notify_one();
  done_.notify_one();  // a parallelFor caller waiting for its workers helps too
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

void ThreadPool::workerLoop() {
  std::uint64_t seenGeneration = 0;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++idle_;
      wake_.wait(lock, [&] {
        return stopping_ || generation_ != seenGeneration || !tasks_.empty();
      });
      --idle_;
      if (!tasks_.empty()) {
        // Tasks drain even during shutdown so submitted futures never break.
        task = std::move(tasks_.front());
        tasks_.pop_front();
      } else if (stopping_) {
        return;
      } else {
        seenGeneration = generation_;
      }
    }
    if (task) {
      task();
      continue;
    }
    drain();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--activeWorkers_ == 0) done_.notify_all();
    }
  }
}

void ThreadPool::drain() {
  for (;;) {
    const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= jobCount_) return;
    try {
      (*job_)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!firstError_) firstError_ = std::current_exception();
      cursor_.store(jobCount_, std::memory_order_relaxed);  // abandon remaining work
    }
  }
}

}  // namespace bzc
