// A small fixed-size thread pool with a parallel_for convenience wrapper.
//
// The benchmark harness distributes Monte-Carlo trials across the pool; each
// task derives its own Rng stream from (seed, task index), so the numerical
// results are identical for any pool size, including size 1.
// Callers never check where they run: parallel_for runs inline where
// pooling would deadlock or cannot help, and every task runs under its
// submitter's RequestContext (common/request_context.hpp). Library code
// holds no pool: its parallel work runs on request_pool(), the pool that
// context names (global_pool() when it names none).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "qcut/common/request_context.hpp"

namespace qcut {

class ThreadPool {
 public:
  /// Creates `n_threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; returns a future for its completion. The task runs
  /// under the submitter's RequestContext with this pool as its pool, so its
  /// nested parallel work stays here (inline); the counts it makes are merged
  /// into the submitter's sink before the future is ready, so a submitter
  /// with a sink waits on the future before the sink dies. The task, with
  /// what it captured, is destroyed on the worker once it has run (or an
  /// injected pool.task fault has kept it from running), before the future
  /// is ready. The callable moves into the queued task as it is.
  template <class F>
  std::future<void> submit(F task);

  /// Runs body(i) for i in [begin, end) across the pool and waits for all.
  /// The chunks run inline, in index order, on the calling thread when it is
  /// one of this pool's workers, when the range is a single chunk, or when
  /// the pool has one worker. Otherwise at most size() tasks claim the
  /// chunks from one counter, every claimed chunk runs to completion, and
  /// then the lowest-index chunk's exception, if any, is rethrown (else an
  /// injected pool.task fault's).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// Chunked variant: body(chunk_begin, chunk_end). Reduces per-task overhead
  /// when the per-index work is tiny.
  void parallel_for_chunked(std::size_t begin, std::size_t end, std::size_t chunk,
                            const std::function<void(std::size_t, std::size_t)>& body);

  // Per-instance lifetime counters, always on (a couple of relaxed atomic
  // adds per task is noise against the lock the queue already takes). The
  // global metrics registry mirrors them under pool_tasks /
  // pool_queue_wait_ns / pool_busy_ns when metrics are enabled.
  std::uint64_t tasks_run() const noexcept { return tasks_run_.load(std::memory_order_relaxed); }
  /// Summed nanoseconds tasks spent queued before a worker picked them up.
  std::uint64_t queue_wait_ns() const noexcept {
    return queue_wait_ns_.load(std::memory_order_relaxed);
  }
  /// Summed nanoseconds workers spent inside task bodies.
  std::uint64_t busy_ns() const noexcept { return busy_ns_.load(std::memory_order_relaxed); }

 private:
  using Clock = std::chrono::steady_clock;

  /// Runs a submitted task on its worker: `run` calls the callable, then
  /// `release` destroys it.
  void run_task(const RequestContext& ctx, Clock::time_point enqueued_at,
                const std::function<void()>& run, const std::function<void()>& release);
  std::future<void> enqueue(std::packaged_task<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> queue_wait_ns_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
};

template <class F>
std::future<void> ThreadPool::submit(F task) {
  return enqueue(std::packaged_task<void()>(
      [this, task = std::optional<F>(std::move(task)), ctx = current_request_context(),
       enqueued_at = Clock::now()]() mutable {
        run_task(ctx, enqueued_at, [&task] { (*task)(); }, [&task] { task.reset(); });
      }));
}

/// Process-wide default pool (lazily constructed, sized to hardware).
ThreadPool& global_pool();

/// The pool the current request runs its parallel work on: the context's
/// pool when one is installed, else global_pool().
ThreadPool& request_pool();

}  // namespace qcut
