// The always-on metrics registry: a fixed set of process-wide atomic
// counters, one relaxed fetch_add per event on the hot paths.
//
// Design constraints, in order:
//  1. The *disabled* path must be almost free — one relaxed atomic<bool> load
//     and a predicted branch — because the counters sit inside the statevector
//     kernel dispatch and the branch-enumeration loops. bench_sim_perf gates
//     the overhead at <= 2% on the hot kernels.
//  2. Counting must never perturb results: instrumentation only ever *reads*
//     simulation state, so estimates are bit-identical with metrics on or off
//     (pinned by test_obs.cpp).
//  3. No dependencies beyond <atomic>, <array>, <cstdint>, <string> and the
//     dependency-free common/request_context.hpp.
//
// The registry is process-global. Snapshots are cheap (kCounterCount relaxed
// loads), and a before/after metrics_delta brackets whatever ran in the
// process meanwhile, concurrent runs included. Per-run numbers come from a
// MetricsSink installed in the run's RequestContext (common/
// request_context.hpp) instead: every count the run makes lands there too,
// on whichever pool worker it runs, and no other run's counts do. Each
// run_qpd_estimate reads its RunReport counters from its own sink.
//
// Knobs: metrics start enabled; QCUT_METRICS=0 (or "off") disables them at
// process start, set_metrics_enabled() toggles at run time.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "qcut/common/request_context.hpp"

namespace qcut {
namespace obs {

enum class Counter : int {
  // BranchCache (exec/branch_cache.cpp): a miss per term whose exact
  // probability prepare() computes, a hit per batch draw served from one.
  kBranchCacheHit = 0,
  kBranchCacheMiss,
  // FragmentVariants (cut/fragment.cpp): a miss per split skeleton built, a
  // hit per term that shares an earlier term's.
  kSkeletonCacheHit,
  kSkeletonCacheMiss,
  // Gate fusion (sim/fusion.cpp): every fuse_range call. The exact backend
  // calls it only on fragments that pass fusion_pays, so these stay 0 on
  // requests whose fragments are all narrower than kMinFusionWidth.
  kFusionOpsBefore,
  kFusionOpsAfter,
  kFusionFused1q,
  kFusionMergedMonomial,
  kFusionDroppedIdentity,
  // Statevector kernel dispatch (sim/statevector.cpp): one count per
  // Statevector::apply, keyed by the GateStructure path taken.
  kDispatchDense1q,
  kDispatchDense2q,
  kDispatchGeneric,
  kDispatchDiagonal,
  kDispatchSparsePhase,
  kDispatchPermutation,
  // ThreadPool (common/threadpool.cpp).
  kPoolTasks,
  kPoolQueueWaitNanos,
  kPoolBusyNanos,
  // Branch enumeration (sim/executor.cpp): branches surviving each
  // measure/reset split vs. candidates dropped by the prune tolerance.
  kBranchesEnumerated,
  kBranchesPruned,
  // Fragment evaluation (cut/fragment.cpp).
  kFragmentUnits,
  kFragmentPrefixRuns,
  // Execution engine (exec/engine.cpp).
  kShotsSampled,
  kBatchesRun,
  // Cut planner (plan/cut_planner.cpp): search-tree nodes visited.
  kPlanNodesExplored,
  // Service layer (src/qcut/svc/): cross-request caches and request flow.
  // A plan or eval lookup that waited for a concurrent build hits.
  kPlanCacheHit,      ///< plan served from the cross-request plan cache
  kPlanCacheMiss,     ///< plan search ran
  kEvalCacheHit,      ///< QPD + warm backend reused across requests
  kEvalCacheMiss,     ///< QPD built and backend constructed fresh
  kSvcRequests,       ///< estimation requests admitted
  kSvcCoalesced,      ///< requests answered by attaching to an in-flight twin
  kSvcRejected,       ///< requests rejected by admission control (retry-after)
  // Request lifecycle (common/cancel.cpp, common/fault.cpp).
  kDeadlinesExceeded,  ///< polls that tripped a request deadline
  kCancellations,      ///< polls that observed a cancelled token
  kFaultsInjected,     ///< fault-injection hooks that fired (QCUT_FAULT)
  kCount
};

inline constexpr int kCounterCount = static_cast<int>(Counter::kCount);

/// Stable snake_case name of a counter — the JSON key RunReport emits.
const char* counter_name(Counter c) noexcept;

namespace detail {
// Exposed only so the count() fast path can inline; not part of the API.
extern std::atomic<bool> g_metrics_enabled;
extern std::array<std::atomic<std::uint64_t>, kCounterCount> g_counters;
}  // namespace detail

/// Point-in-time copy of every counter.
struct MetricsSnapshot {
  std::array<std::uint64_t, kCounterCount> values{};

  std::uint64_t operator[](Counter c) const noexcept {
    return values[static_cast<std::size_t>(c)];
  }
};

/// One request's (or one pool task's) counters. The thread it is installed
/// on adds with a relaxed load and store, a plain add: it is the only
/// writer while it counts. Pool tasks count into a task-local sink and merge
/// it into their submitter's with fetch_add before the task's future is
/// ready, while the submitter waits on that future.
class MetricsSink {
 public:
  void add(Counter c, std::uint64_t n) noexcept {
    std::atomic<std::uint64_t>& v = values_[static_cast<std::size_t>(c)];
    v.store(v.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  /// Adds every counter into `target`.
  void merge_into(MetricsSink& target) const noexcept {
    for (std::size_t i = 0; i < values_.size(); ++i) {
      if (const std::uint64_t v = values_[i].load(std::memory_order_relaxed)) {
        target.values_[i].fetch_add(v, std::memory_order_relaxed);
      }
    }
  }

  MetricsSnapshot snapshot() const noexcept {
    MetricsSnapshot s;
    for (std::size_t i = 0; i < values_.size(); ++i) {
      s.values[i] = values_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kCounterCount> values_{};
};

inline bool metrics_enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Adds `n` to counter `c`. The disabled path is one relaxed load and a
/// predicted branch; the enabled path adds one relaxed fetch_add, plus a
/// plain add when the thread's RequestContext carries a sink.
inline void count(Counter c, std::uint64_t n = 1) noexcept {
  if (!metrics_enabled()) {
    return;
  }
  if (MetricsSink* sink = qcut::detail::t_context.sink) {
    sink->add(c, n);
  }
  detail::g_counters[static_cast<std::size_t>(c)].fetch_add(n, std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) noexcept;

MetricsSnapshot metrics_snapshot() noexcept;

/// after - before, per counter (saturating at 0 should a reset intervene).
MetricsSnapshot metrics_delta(const MetricsSnapshot& before, const MetricsSnapshot& after) noexcept;

/// Zeroes every counter (tests; not used on production paths).
void metrics_reset() noexcept;

/// {"branch_cache_hit": 1, ...} — every counter, in declaration order.
std::string metrics_json(const MetricsSnapshot& snap, int indent = 0);

}  // namespace obs
}  // namespace qcut
