// Thread pool: correctness, exception propagation, schedule-independent
// results with per-task RNG streams, nested parallel_for, the request
// context a task inherits from its submitter, and the task/queue-wait
// accounting the observability layer reads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <thread>

#include "qcut/common/cancel.hpp"
#include "qcut/common/error.hpp"
#include "qcut/common/fault.hpp"
#include "qcut/common/request_context.hpp"
#include "qcut/common/rng.hpp"
#include "qcut/common/threadpool.hpp"
#include "qcut/obs/metrics.hpp"

namespace qcut {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(256);
  pool.parallel_for(0, 256, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForChunkedCoversRange) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_chunked(0, 1000, 37, [&hits](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::size_t i) {
                                   if (i == 7) {
                                     throw Error("boom");
                                   }
                                 }),
               Error);
}

TEST(ThreadPool, ASubmittedTaskIsReleasedBeforeItsFutureIsReady) {
  // What a task captured dies on the worker once it has run, or once an
  // injected pool.task fault has kept it from running, even while the
  // submitter still holds the future: a capture's destructor can signal
  // completion either way.
  ThreadPool pool(1);
  for (const bool fault_armed : {false, true}) {
    if (fault_armed) {
      fault::arm_faults("pool.task:throw");
    }
    std::atomic<bool> released{false};
    std::shared_ptr<int> capture(new int(0), [&released](int* p) {
      released.store(true);
      delete p;
    });
    std::future<void> done = pool.submit([capture = std::move(capture)] {});
    done.wait();
    fault::disarm_faults();
    EXPECT_TRUE(released.load()) << "fault armed: " << fault_armed;
    EXPECT_EQ(fault_armed, [&done] {
      try {
        done.get();
        return false;
      } catch (const Error&) {
        return true;
      }
    }());
  }
}

TEST(ThreadPool, ParallelForSubmitsAtMostSizeTasks) {
  // The indices are claimed from one counter by at most size() tasks, not
  // submitted one task each.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  const std::uint64_t before = pool.tasks_run();
  pool.parallel_for(0, hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_LE(pool.tasks_run() - before, 4u);
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForRethrowsTheLowestIndexAfterEveryIndexRan) {
  // No index outlives the call (the body's captures would dangle): even the
  // slow last index has run when the lowest-index exception is rethrown.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(0, 64, [&ran](std::size_t i) {
      if (i == 63) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      ran.fetch_add(1);
      if (i == 7 || i == 3) {
        throw Error("index " + std::to_string(i));
      }
    });
    FAIL() << "no exception";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "index 3");
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ParallelForSurfacesAnInjectedTaskFault) {
  ThreadPool pool(4);
  fault::arm_faults("pool.task:throw");
  try {
    pool.parallel_for(0, 64, [](std::size_t) {});
    fault::disarm_faults();
    FAIL() << "no exception";
  } catch (const Error& e) {
    fault::disarm_faults();
    EXPECT_NE(std::string(e.what()).find("fault injected at pool.task"), std::string::npos)
        << e.what();
  }
}

TEST(ThreadPool, NestedParallelForOnTheSamePoolCoversItsRangeOnce) {
  // Every worker runs an outer chunk that calls parallel_for on its own
  // pool: those inner calls run inline instead of waiting on tasks that only
  // the blocked workers could serve.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(8 * 16);
  pool.parallel_for(0, 8, [&pool, &hits](std::size_t i) {
    pool.parallel_for(0, 16, [&hits, i](std::size_t j) { hits[i * 16 + j].fetch_add(1); });
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, TasksRunUnderTheSubmittersCancelToken) {
  ThreadPool pool(4);
  CancelToken token;
  const ScopedRequestContext scope({&token, nullptr});
  std::vector<CancelToken*> seen(64, nullptr);
  pool.parallel_for(0, seen.size(),
                    [&seen](std::size_t i) { seen[i] = current_cancel_token(); });
  for (CancelToken* t : seen) {
    EXPECT_EQ(t, &token);
  }
  CancelToken* submitted = nullptr;
  pool.submit([&submitted] { submitted = current_cancel_token(); }).get();
  EXPECT_EQ(submitted, &token);
}

TEST(ThreadPool, SubmittedTaskRunsItsNestedWorkInlineOnItsOwnPool) {
  // Submitted straight to a 2-worker pool from a context that names no pool:
  // the task's request pool is that pool, so its nested parallel_for runs
  // inline on the task's worker, and the global pool runs nothing.
  ThreadPool pool(2);
  const ScopedRequestContext scope(RequestContext{});
  const std::uint64_t global_before = global_pool().tasks_run();
  const ThreadPool* task_pool = nullptr;
  std::thread::id task_thread;
  std::vector<std::thread::id> nested(64);
  pool.submit([&] {
        task_pool = &request_pool();
        task_thread = std::this_thread::get_id();
        request_pool().parallel_for(0, nested.size(), [&nested](std::size_t i) {
          nested[i] = std::this_thread::get_id();
        });
      })
      .get();
  EXPECT_EQ(task_pool, &pool);
  EXPECT_NE(task_thread, std::this_thread::get_id());
  for (const std::thread::id id : nested) {
    EXPECT_EQ(id, task_thread);
  }
  EXPECT_EQ(global_pool().tasks_run(), global_before);
}

TEST(ThreadPool, ResultsIndependentOfPoolSize) {
  // Sum of per-task RNG draws must not depend on scheduling.
  auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<Real> results(64, 0.0);
    pool.parallel_for(0, 64, [&results](std::size_t i) {
      Rng rng(999, static_cast<std::uint64_t>(i));
      Real acc = 0.0;
      for (int j = 0; j < 100; ++j) {
        acc += rng.uniform();
      }
      results[i] = acc;
    });
    return std::accumulate(results.begin(), results.end(), 0.0);
  };
  EXPECT_DOUBLE_EQ(run(1), run(4));
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  std::atomic<int> counter{0};
  global_pool().parallel_for(0, 10, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, CountsTasksQueueWaitAndBusyTime) {
  // 8 compute-bound tasks on 2 workers: the later tasks must sit in the
  // queue, and every task body takes measurable time. The per-instance
  // counters are always on; the global registry mirrors them when metrics
  // are enabled. A worker records its counters *after* satisfying the task's
  // future, so poll tasks_run() briefly instead of asserting right at get().
  obs::set_metrics_enabled(true);
  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(pool.submit([] {
        const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
        while (std::chrono::steady_clock::now() < until) {
        }
      }));
    }
    for (auto& f : futures) {
      f.get();
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (pool.tasks_run() < 8 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(pool.tasks_run(), 8u);
    EXPECT_GT(pool.busy_ns(), 0u);
    EXPECT_GT(pool.queue_wait_ns(), 0u);
  }
  // Pool destroyed (workers joined): every registry mirror add has landed.
  // >= rather than ==: a straggler add from an earlier test's global-pool
  // task may land inside the bracket.
  const obs::MetricsSnapshot d = obs::metrics_delta(before, obs::metrics_snapshot());
  EXPECT_GE(d[obs::Counter::kPoolTasks], 8u);
  EXPECT_GT(d[obs::Counter::kPoolBusyNanos], 0u);
  EXPECT_GT(d[obs::Counter::kPoolQueueWaitNanos], 0u);
}

}  // namespace
}  // namespace qcut
