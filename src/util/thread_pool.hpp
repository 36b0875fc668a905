// A fixed-size persistent worker pool, and fan_out(): the one way the
// library runs N indexed tasks and joins them.
//
// The pool keeps a fixed set of workers alive for the process, hands
// results (and exceptions) back through std::future, and deliberately
// avoids work stealing: tasks here are coarse (whole MCMC chains, R-hat
// coordinate ranges, campaign scenarios), so a single locked queue is
// contention-free in practice and keeps execution order easy to reason
// about. Callers that fan work out go through fan_out(), which returns
// results in index order and never lets a task outlive the call; only the
// sharded engine's long-lived round workers hold pool futures directly.
//
// The locking discipline is machine-checked: `queue_` and `stopping_` are
// BECAUSE_GUARDED_BY(mutex_), so under clang's -Wthread-safety (the
// check-tsa gate) any access outside a MutexLock fails to compile.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/annotations.hpp"
#include "util/contracts.hpp"

namespace because::util {

class ThreadPool {
 public:
  /// Hardware thread count with a floor of 1 (hardware_concurrency may
  /// legally report 0).
  static std::size_t hardware_threads() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<std::size_t>(n);
  }

  explicit ThreadPool(std::size_t threads = hardware_threads()) {
    if (threads == 0) threads = 1;
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
    BECAUSE_CHECK(!workers_.empty(), "pool started with no workers");
  }

  ~ThreadPool() {
    {
      MutexLock lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
    // Workers drain the queue before exiting; a job left behind means the
    // lifecycle protocol broke and a future would never become ready. All
    // workers are joined, but the annotated contract on queue_ still wants
    // the lock (and an uncontended acquire here is free).
    MutexLock lock(mutex_);
    BECAUSE_CHECK(queue_.empty(), queue_.size()
                                      << " jobs abandoned at pool shutdown");
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue `fn` and return a future for its result. An exception escaping
  /// `fn` is captured and rethrown from future::get(); the worker survives.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      MutexLock lock(mutex_);
      if (stopping_)
        throw std::runtime_error("ThreadPool::submit: pool is stopping");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        MutexLock lock(mutex_);
        // Manual wait loop rather than the predicate overload: the guarded
        // reads stay in this function's lock scope where the thread-safety
        // analysis can see them (a predicate lambda would be analyzed as an
        // unlocked context).
        while (!stopping_ && queue_.empty()) cv_.wait(mutex_);
        if (queue_.empty()) return;  // stopping and drained
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      job();
    }
  }

  Mutex mutex_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ BECAUSE_GUARDED_BY(mutex_);
  bool stopping_ BECAUSE_GUARDED_BY(mutex_) = false;
  // Written only by the constructor, joined by the destructor; const-like
  // for the pool's lifetime, so deliberately not guarded.
  std::vector<std::thread> workers_;
};

/// The process-wide pool shared by the multi-chain runners, sized to the
/// hardware so nested invocations cannot oversubscribe the machine.
inline ThreadPool& shared_pool() {
  static ThreadPool pool(ThreadPool::hardware_threads());
  return pool;
}

/// Run fn(0), ..., fn(n - 1) and return the results in index order: one
/// pool task per index, or inline on the calling thread, in index order,
/// when `pool` is null. Every task runs to completion before the call
/// returns or throws; if any threw, the lowest-index exception is rethrown
/// then, so tasks may safely reference the caller's frame. Results depend
/// on the index only, never on the pool size.
template <typename F>
auto fan_out(ThreadPool* pool, std::size_t n, F&& fn) {
  using R = std::invoke_result_t<F&, std::size_t>;
  std::vector<std::future<R>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (pool != nullptr) {
      futures.push_back(pool->submit([&fn, i] { return fn(i); }));
    } else {
      std::packaged_task<R()> task([&fn, i] { return fn(i); });
      futures.push_back(task.get_future());
      task();
    }
  }
  for (std::future<R>& f : futures) f.wait();
  if constexpr (std::is_void_v<R>) {
    for (std::future<R>& f : futures) f.get();
  } else {
    std::vector<R> results;
    results.reserve(n);
    for (std::future<R>& f : futures) results.push_back(f.get());
    return results;
  }
}

}  // namespace because::util
