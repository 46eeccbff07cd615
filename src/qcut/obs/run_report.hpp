// Machine-readable run accounting: where the shots, branches, cache hits and
// wall time of one estimation actually went.
//
// Two pieces:
//  * Provenance — who produced a number: git SHA (stamped at configure time),
//    compiler, build type, active SIMD tier, hardware threads, and a UTC
//    timestamp. Every bench JSON embeds provenance_json() so perf
//    trajectories across PRs stay attributable to a build.
//  * RunReport — the paper's resource-accounting argument made observable:
//    shots sampled vs the κ²/ε² budget, branch/skeleton cache hit rates,
//    fusion op reduction, per-structure kernel dispatch counts, thread-pool
//    task count / queue wait / utilization, and branches enumerated vs
//    pruned. run_qpd_estimate fills one per run (from the run's own
//    MetricsSink), PlannedExecutor adds the plan's predicted budget, and
//    example_auto_cut --report writes it to disk.
//
// The counters are exactly this run's: the sink receives every count the run
// makes, on the calling thread and on every pool task it fans out to, and
// none from runs executing concurrently in the same process.
#pragma once

#include <cstdint>
#include <string>

#include "qcut/common/types.hpp"
#include "qcut/obs/metrics.hpp"

namespace qcut {
namespace obs {

struct Provenance {
  std::string git_sha;            ///< build-time `git rev-parse --short HEAD`
  std::string compiler;           ///< __VERSION__
  std::string build_type;         ///< "release" (NDEBUG) or "debug"
  std::string simd_tier;          ///< active dispatch tier at call time
  std::size_t hardware_threads = 0;
  std::string timestamp_utc;      ///< ISO 8601, runtime
};

/// Build identity and hardware threads are computed once per process;
/// simd_tier and timestamp_utc are read on every call.
Provenance provenance();

/// Provenance as a JSON object string (no trailing newline), for embedding:
///   json << "  \"provenance\": " << obs::provenance_json(2) << ",\n";
/// `indent` is the column of the opening brace; members indent two deeper.
std::string provenance_json(int indent = 0);

struct RunReport {
  bool metrics_enabled = false;   ///< registry state during the run
  /// Service request this report belongs to (empty for in-process runs);
  /// the same id is stamped into the run's trace spans.
  std::string request_id;
  std::string backend;            ///< execution backend name
  std::string simd_tier;          ///< active SIMD tier
  std::size_t pool_threads = 0;   ///< workers of the pool the run used
  Real kappa = 0.0;               ///< QPD sampling overhead κ
  std::uint64_t shots_sampled = 0;
  /// κ²/ε² predicted by the planner; 0 for unplanned runs (no ε target).
  Real shots_budget = 0.0;
  std::uint64_t wall_time_ns = 0;
  /// Plan shape (planned runs only; 0/0 otherwise).
  std::size_t plan_cuts = 0;
  int max_fragment_width = 0;
  /// This run's counts of every counter in obs/metrics.hpp.
  MetricsSnapshot counters;

  /// Full JSON document: provenance, config, shots-vs-budget, cache hit
  /// rates, fusion stats, kernel dispatch counts, pool utilization, branch
  /// accounting, and the raw counter block. `indent` as in provenance_json.
  std::string to_json(int indent = 0) const;
};

}  // namespace obs
}  // namespace qcut
