// Fixed-size thread pool used by bench harnesses to run independent
// simulations in parallel. (The rt/ runtime starts its own worker threads.)
//
// Tasks are type-erased std::move_only_function-style callables; submit()
// returns a std::future. parallel_for_each provides a blocking data-parallel
// helper with exception propagation (first exception rethrown).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace flexmr {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Tasks currently executing on workers (includes the reader's own task
  /// when called from inside one). An occupancy snapshot: benches record
  /// it per work item so wall-clock-per-run numbers carry how contended
  /// the pool was when the run was timed.
  std::size_t active() const {
    return active_.load(std::memory_order_relaxed);
  }

  /// Enqueues a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Applies fn to every element of [begin, end) across the pool; blocks
  /// until all complete. The first exception thrown by any invocation is
  /// rethrown in the caller (remaining items still run).
  template <typename Iter, typename F>
  void parallel_for_each(Iter begin, Iter end, F&& fn) {
    std::vector<std::future<void>> futures;
    for (Iter it = begin; it != end; ++it) {
      futures.push_back(submit([&fn, it]() { fn(*it); }));
    }
    std::exception_ptr first_error;
    for (auto& fut : futures) {
      try {
        fut.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  /// Runs fn(i) for i in [0, n) across the pool; blocks until done.
  template <typename F>
  void parallel_for_index(std::size_t n, F&& fn) {
    std::vector<std::size_t> indices(n);
    for (std::size_t i = 0; i < n; ++i) indices[i] = i;
    parallel_for_each(indices.begin(), indices.end(),
                      [&fn](std::size_t i) { fn(i); });
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<std::size_t> active_{0};
  bool stopping_ = false;
};

}  // namespace flexmr
