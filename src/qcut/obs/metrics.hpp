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
//  3. Zero dependencies: <atomic>, <array>, <cstdint>, <string> only.
//
// The registry is process-global. Snapshots are cheap (kCounterCount relaxed
// loads); callers that want per-run numbers take a snapshot before and after
// and subtract (metrics_delta) — see obs/run_report.hpp. Concurrent runs in
// one process therefore see each other's counts in the registry. Per-request
// numbers come from a ScopedMetricsSink instead: the server sets
// CutRunConfig::scoped_report on every request, and the run records its
// report's counters from a sink installed on its own thread.
//
// Knobs: metrics start enabled; QCUT_METRICS=0 (or "off") disables them at
// process start, set_metrics_enabled() toggles at run time.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace qcut {
namespace obs {

enum class Counter : int {
  // BranchCache (exec/branch_cache.cpp): per-term exact-probability lookups.
  kBranchCacheHit = 0,
  kBranchCacheMiss,
  // cached_skeleton (cut/fragment.cpp): split-structure lookups.
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
  // A skeleton, plan or eval lookup that waited for a concurrent build hits.
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

/// Per-thread counter sink for request-scoped accounting (see
/// ScopedMetricsSink). Plain integers — a sink is only ever written by the
/// thread it is installed on.
struct MetricsLocal {
  std::array<std::uint64_t, kCounterCount> values{};
};

namespace detail {
// Exposed only so the count() fast path can inline; not part of the API.
extern std::atomic<bool> g_metrics_enabled;
extern std::array<std::atomic<std::uint64_t>, kCounterCount> g_counters;
// Inline with a constant initializer for the same reason as
// qcut::detail::t_cancel (common/cancel.hpp): gcc 12's UBSan flags reads of
// an `extern thread_local` pointer through its TLS wrapper as null loads.
inline thread_local MetricsLocal* t_sink = nullptr;
}  // namespace detail

inline bool metrics_enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Adds `n` to counter `c`. The disabled path is one relaxed load, one
/// thread-local load, and two predicted branches; the enabled path adds one
/// relaxed fetch_add (plus a plain add when a per-thread sink is installed).
inline void count(Counter c, std::uint64_t n = 1) noexcept {
  if (MetricsLocal* sink = detail::t_sink) {
    sink->values[static_cast<std::size_t>(c)] += n;
  }
  if (metrics_enabled()) {
    detail::g_counters[static_cast<std::size_t>(c)].fetch_add(n, std::memory_order_relaxed);
  }
}

void set_metrics_enabled(bool enabled) noexcept;

/// Point-in-time copy of every counter.
struct MetricsSnapshot {
  std::array<std::uint64_t, kCounterCount> values{};

  std::uint64_t operator[](Counter c) const noexcept {
    return values[static_cast<std::size_t>(c)];
  }
};

MetricsSnapshot metrics_snapshot() noexcept;

/// after - before, per counter (saturating at 0 should a reset intervene).
MetricsSnapshot metrics_delta(const MetricsSnapshot& before, const MetricsSnapshot& after) noexcept;

/// Zeroes every counter (tests; not used on production paths).
void metrics_reset() noexcept;

/// RAII per-thread counter scope: while alive, every obs::count issued by
/// the *installing thread* is additionally recorded into a private local
/// array, regardless of the global enable switch. The service layer wraps
/// each request in one of these — requests execute entirely on one pool
/// worker (the engine and fragment evaluator fall back inline on their own
/// workers), so the sink captures exactly that request's counters even when
/// many requests run concurrently against the shared global registry.
/// Scopes nest (the previous sink is restored on destruction); counts from
/// OTHER threads are not captured — install only around single-threaded
/// sections.
class ScopedMetricsSink {
 public:
  ScopedMetricsSink() noexcept : prev_(detail::t_sink) { detail::t_sink = &local_; }
  ~ScopedMetricsSink() { detail::t_sink = prev_; }

  ScopedMetricsSink(const ScopedMetricsSink&) = delete;
  ScopedMetricsSink& operator=(const ScopedMetricsSink&) = delete;

  /// The counts captured so far, as a snapshot.
  MetricsSnapshot snapshot() const noexcept {
    MetricsSnapshot s;
    s.values = local_.values;
    return s;
  }

 private:
  MetricsLocal local_;
  MetricsLocal* prev_;
};

/// {"branch_cache_hit": 1, ...} — every counter, in declaration order.
std::string metrics_json(const MetricsSnapshot& snap, int indent = 0);

}  // namespace obs
}  // namespace qcut
