#include "qcut/obs/metrics.hpp"

#include <cstdlib>
#include <cstring>

namespace qcut {
namespace obs {

namespace detail {
std::atomic<bool> g_metrics_enabled{true};
std::array<std::atomic<std::uint64_t>, kCounterCount> g_counters{};
}  // namespace detail

namespace {

// Declaration order of obs::Counter — counter_name and metrics_json index
// straight into this table.
constexpr const char* kCounterNames[kCounterCount] = {
    "branch_cache_hit",
    "branch_cache_miss",
    "skeleton_cache_hit",
    "skeleton_cache_miss",
    "fusion_ops_before",
    "fusion_ops_after",
    "fusion_fused_1q",
    "fusion_merged_monomial",
    "fusion_dropped_identity",
    "dispatch_dense_1q",
    "dispatch_dense_2q",
    "dispatch_generic",
    "dispatch_diagonal",
    "dispatch_sparse_phase",
    "dispatch_permutation",
    "pool_tasks",
    "pool_queue_wait_ns",
    "pool_busy_ns",
    "branches_enumerated",
    "branches_pruned",
    "fragment_units",
    "fragment_prefix_runs",
    "shots_sampled",
    "batches_run",
    "plan_nodes_explored",
    "plan_cache_hit",
    "plan_cache_miss",
    "eval_cache_hit",
    "eval_cache_miss",
    "svc_requests",
    "svc_coalesced",
    "svc_rejected",
    "deadlines_exceeded",
    "cancellations",
    "faults_injected",
};

/// Reads QCUT_METRICS once at process start. Runs during this translation
/// unit's dynamic initialization; g_metrics_enabled itself is constant-
/// initialized to true, so counts arriving before (or without) the env read
/// are merely counted — never undefined behavior.
struct EnvInit {
  EnvInit() {
    const char* env = std::getenv("QCUT_METRICS");
    if (env != nullptr &&
        (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
         std::strcmp(env, "false") == 0)) {
      detail::g_metrics_enabled.store(false, std::memory_order_relaxed);
    }
  }
};
const EnvInit g_env_init;

}  // namespace

const char* counter_name(Counter c) noexcept {
  const int i = static_cast<int>(c);
  return (i >= 0 && i < kCounterCount) ? kCounterNames[i] : "unknown";
}

void set_metrics_enabled(bool enabled) noexcept {
  detail::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

MetricsSnapshot metrics_snapshot() noexcept {
  MetricsSnapshot snap;
  for (int i = 0; i < kCounterCount; ++i) {
    snap.values[static_cast<std::size_t>(i)] =
        detail::g_counters[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  return snap;
}

MetricsSnapshot metrics_delta(const MetricsSnapshot& before,
                              const MetricsSnapshot& after) noexcept {
  MetricsSnapshot d;
  for (int i = 0; i < kCounterCount; ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    d.values[s] = after.values[s] >= before.values[s] ? after.values[s] - before.values[s] : 0;
  }
  return d;
}

void metrics_reset() noexcept {
  for (auto& c : detail::g_counters) {
    c.store(0, std::memory_order_relaxed);
  }
}

std::string metrics_json(const MetricsSnapshot& snap, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string inner(static_cast<std::size_t>(indent) + 2, ' ');
  std::string out = "{\n";
  for (int i = 0; i < kCounterCount; ++i) {
    out += inner;
    out += '"';
    out += kCounterNames[i];
    out += "\": ";
    out += std::to_string(snap.values[static_cast<std::size_t>(i)]);
    out += i + 1 < kCounterCount ? ",\n" : "\n";
  }
  out += pad;
  out += '}';
  return out;
}

}  // namespace obs
}  // namespace qcut
