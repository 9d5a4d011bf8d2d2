// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace knnshap {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelForHelping(size_t count, std::function<void(size_t)> fn) {
  if (count == 0) return;
  if (count == 1 || NumThreads() == 0) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // Shared state outlives this call via shared_ptr: a helper task that is
  // dequeued *after* the caller has drained the loop and returned must
  // still be able to observe next >= count and exit without touching
  // anything freed.
  struct State {
    std::function<void(size_t)> fn;
    size_t count;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mutex;
    std::condition_variable cv;
  };
  auto state = std::make_shared<State>();
  state->fn = std::move(fn);
  state->count = count;
  auto drain = [](const std::shared_ptr<State>& s) {
    for (;;) {
      const size_t i = s->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s->count) return;
      s->fn(i);
      if (s->done.fetch_add(1, std::memory_order_acq_rel) + 1 == s->count) {
        std::lock_guard<std::mutex> lock(s->mutex);
        s->cv.notify_all();
      }
    }
  };
  const size_t helpers = std::min(count - 1, NumThreads());
  for (size_t h = 0; h < helpers; ++h) {
    Submit([state, drain] { drain(state); });
  }
  drain(state);
  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock,
                 [&] { return state->done.load(std::memory_order_acquire) ==
                              state->count; });
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace knnshap
