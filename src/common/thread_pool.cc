#include "src/common/thread_pool.h"

#include <algorithm>
#include <latch>
#include <utility>

#include "src/common/trace.h"

namespace yask {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back(&ThreadPool::WorkerLoop, this);
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !tasks_.empty() || stopping_; });
      if (tasks_.empty()) return;  // stopping_ and fully drained.
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void FanOut(ThreadPool* pool, const std::vector<size_t>& indices,
            const std::function<void(size_t)>& fn) {
  if (pool == nullptr || indices.size() <= 1) {
    for (const size_t i : indices) fn(i);
    return;
  }
  const TraceContext trace_ctx = CurrentTraceContext();
  std::latch latch(static_cast<ptrdiff_t>(indices.size()));
  for (const size_t i : indices) {
    pool->Submit([&fn, &latch, trace_ctx, i] {
      TraceContextScope scope(trace_ctx);
      fn(i);
      latch.count_down();
    });
  }
  latch.wait();
}

}  // namespace yask
