// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Fixed-size worker pool with a helping parallel-for. The exact Shapley
// algorithm is embarrassingly parallel over test points (Algorithm 1's
// outer loop), and the large-dataset benches need that parallelism to stay
// within a laptop-scale time budget.

#ifndef KNNSHAP_UTIL_THREAD_POOL_H_
#define KNNSHAP_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace knnshap {

/// Fixed pool of worker threads.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (0 = hardware concurrency).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t NumThreads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, count) and returns once every iteration has
  /// completed. The caller *helps*: indices are claimed one at a time from
  /// a shared atomic counter, and the calling thread drains them alongside
  /// up to NumThreads() enqueued helpers instead of parking on a condition
  /// variable. Safe to call from a pool worker, and nested to any depth:
  /// the helper tasks are optional — if every worker is busy, the caller
  /// simply finishes the loop alone. This is what lets a request running
  /// on a pool worker spread its queries over idle workers, and a query
  /// spread its blocks (knn/neighbors.h). `fn` must be safe to invoke
  /// concurrently from multiple threads.
  void ParallelForHelping(size_t count, std::function<void(size_t)> fn);

  /// Enqueues one task and returns immediately. The serve pipeline uses
  /// this to run whole requests on workers.
  void Submit(std::function<void()> task);

  /// Process-wide pool, sized to the machine.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace knnshap

#endif  // KNNSHAP_UTIL_THREAD_POOL_H_
