// Copyright (c) 2026 The YASK reproduction authors.
// A small fixed-size worker pool for query fan-out.
//
// The sharded top-k engine dispatches one best-first search per shard for
// every query; spawning threads per query would cost more than the searches
// themselves, so the pool keeps its workers alive for the lifetime of the
// engine. Submit() is thread-safe — the HTTP workers of YaskService call
// into the same pool concurrently. FanOut() is the one way a layout runs a
// per-shard step over the pool and joins it.

#ifndef YASK_COMMON_THREAD_POOL_H_
#define YASK_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace yask {

/// Fixed-size worker pool. Tasks run in submission order across the workers;
/// the destructor drains every queued task before joining (so submitted work
/// never silently disappears — callers waiting on a latch always wake).
class ThreadPool {
 public:
  /// `num_threads` is clamped to at least 1.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe. Must not be called after destruction has
  /// begun (the engine owns both the pool and every submitter).
  void Submit(std::function<void()> task);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(i) for every i in `indices` and returns once all have finished:
/// on `pool` when there is one and more than one index (the caller blocks on
/// a latch), inline on the calling thread otherwise. Pool tasks run under
/// the caller's trace context, so spans they record parent under the span
/// open at the call site. Tasks must be leaves (never wait on this pool
/// themselves), or a caller blocked on the latch could starve the pool.
void FanOut(ThreadPool* pool, const std::vector<size_t>& indices,
            const std::function<void(size_t)>& fn);

}  // namespace yask

#endif  // YASK_COMMON_THREAD_POOL_H_
