#include "runtime/thread_pool.hpp"

namespace bzc {

namespace {
thread_local unsigned t_workerBudget = 1;
}  // namespace

unsigned trialWorkerBudget() noexcept { return t_workerBudget; }

WorkerBudgetScope::WorkerBudgetScope(unsigned workers) noexcept : prev_(t_workerBudget) {
  t_workerBudget = workers > 0 ? workers : 1;
}

WorkerBudgetScope::~WorkerBudgetScope() { t_workerBudget = prev_; }

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
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
    job_ = &body;
    jobCount_ = count;
    cursor_.store(0, std::memory_order_relaxed);
    firstError_ = nullptr;
    activeWorkers_ = workers_.size();
    ++generation_;
  }
  wake_.notify_all();
  drain();  // the caller works too
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] { return activeWorkers_ == 0; });
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

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  wake_.notify_one();
}

bool ThreadPool::runQueuedTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop_front();
  }
  const WorkerBudgetScope budget(1);
  task();  // packaged_task traps exceptions into its own future
  return true;
}

void ThreadPool::workerLoop() {
  std::uint64_t seenGeneration = 0;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] {
        return stopping_ || generation_ != seenGeneration || !tasks_.empty();
      });
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
      task();  // packaged_task traps exceptions into the future
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
