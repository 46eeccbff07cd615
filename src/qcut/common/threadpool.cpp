#include "qcut/common/threadpool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "qcut/common/error.hpp"
#include "qcut/common/fault.hpp"
#include "qcut/common/request_context.hpp"
#include "qcut/obs/metrics.hpp"

namespace qcut {

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
}

namespace {

/// The pool whose worker this thread is, set once by worker_loop.
thread_local const ThreadPool* t_worker_of = nullptr;

std::uint64_t nanos(std::chrono::steady_clock::duration d) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

}  // namespace

void ThreadPool::run_task(const RequestContext& ctx, Clock::time_point enqueued_at,
                          const std::function<void()>& run,
                          const std::function<void()>& release) {
  // The task runs under its submitter's context, with this pool as its
  // request pool, counting into a task-local sink that is merged into the
  // submitter's before the packaged task makes the future ready, throwing or
  // not. The fault hook lives INSIDE the packaged task: an injected throw is
  // then captured into the task's future exactly like a real task failure,
  // instead of escaping worker_loop. The task is released as soon as it has
  // run or failed, before the future is ready: what it captured dies on the
  // worker even while the submitter still holds the future.
  const auto picked_up = Clock::now();
  obs::MetricsSink local;
  std::exception_ptr error;
  {
    const ScopedRequestContext scope({ctx.cancel, ctx.sink != nullptr ? &local : nullptr, this});
    try {
      fault::maybe_inject(fault::Site::kPoolTask);
      run();
    } catch (...) {
      error = std::current_exception();
    }
    release();
    const std::uint64_t wait_ns = nanos(picked_up - enqueued_at);
    const std::uint64_t run_ns = nanos(Clock::now() - picked_up);
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    queue_wait_ns_.fetch_add(wait_ns, std::memory_order_relaxed);
    busy_ns_.fetch_add(run_ns, std::memory_order_relaxed);
    obs::count(obs::Counter::kPoolTasks);
    obs::count(obs::Counter::kPoolQueueWaitNanos, wait_ns);
    obs::count(obs::Counter::kPoolBusyNanos, run_ns);
  }
  if (ctx.sink != nullptr) {
    local.merge_into(*ctx.sink);
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

std::future<void> ThreadPool::enqueue(std::packaged_task<void()> task) {
  std::future<void> fut = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    QCUT_CHECK(!stop_, "submit on stopped ThreadPool");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::worker_loop() {
  t_worker_of = this;
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) {
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions are captured in the packaged_task's future
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  parallel_for_chunked(begin, end, 1, [&body](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      body(i);
    }
  });
}

void ThreadPool::parallel_for_chunked(
    std::size_t begin, std::size_t end, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) {
    return;
  }
  chunk = std::max<std::size_t>(1, chunk);
  const std::size_t n_chunks = (end - begin + chunk - 1) / chunk;
  // Inline on one of this pool's workers, where waiting on futures only the
  // blocked workers could serve would deadlock, and wherever pooling cannot
  // overlap anything.
  if (t_worker_of == this || n_chunks == 1 || size() == 1) {
    for (std::size_t lo = begin; lo < end; lo += chunk) {
      body(lo, std::min(end, lo + chunk));
    }
    return;
  }
  // At most size() tasks claim the chunks from one counter. Each chunk keeps
  // its own exception, so no body exception crosses a packaged_task, and
  // every claimed chunk finishes before one is rethrown: none outlives
  // `body`. A get() that throws is an injected pool.task fault, raised before
  // its task claimed a chunk (the other tasks claim the rest); it lands in
  // the last slot, after every chunk's.
  std::vector<std::exception_ptr> errors(n_chunks + 1);
  std::atomic<std::size_t> next{0};
  const auto claim = [&] {
    for (std::size_t c; (c = next.fetch_add(1, std::memory_order_relaxed)) < n_chunks;) {
      const std::size_t lo = begin + c * chunk;
      try {
        body(lo, std::min(end, lo + chunk));
      } catch (...) {
        errors[c] = std::current_exception();
      }
    }
  };
  std::vector<std::future<void>> tasks(std::min(size(), n_chunks));
  for (std::future<void>& task : tasks) {
    task = submit(claim);
  }
  for (std::future<void>& task : tasks) {
    try {
      task.get();
    } catch (...) {
      errors.back() = std::current_exception();
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) {
      std::rethrow_exception(e);
    }
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

ThreadPool& request_pool() {
  ThreadPool* pool = current_request_context().pool;
  return pool != nullptr ? *pool : global_pool();
}

}  // namespace qcut
