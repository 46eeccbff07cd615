// The traced run's view of one request: the public functions svc::estimate
// calls, called in its order from outside the program and timed one by one,
// plus the per-layer metrics derived from those timings and from obs
// counter deltas.
#pragma once

#include <cstdint>
#include <vector>

#include "qcut/obs/metrics.hpp"
#include "qcut/svc/api.hpp"
#include "stats.hpp"

namespace qbench {

/// Milliseconds spent in each stage of one request.
struct StageTimes {
  double import_ms = 0.0;  ///< import_qasm + strip_trailing_measurements
  double plan_ms = 0.0;    ///< CutPlanner::plan (construction included)
  double splice_ms = 0.0;  ///< PlannedExecutor constructor + build_qpd
  double route_ms = 0.0;   ///< PlannedExecutor::routed_backend
  double exact_ms = 0.0;   ///< uncut_circuit_expectation (narrow circuits)
  double run_ms = 0.0;     ///< run_qpd_estimate
  double sum() const { return import_ms + plan_ms + splice_ms + route_ms + exact_ms + run_ms; }
};

struct StagedRun {
  StageTimes ms;
  double wall_ms = 0.0;                 ///< first stage start to last stage end
  qcut::obs::MetricsSnapshot counters;  ///< registry delta over the whole request
  std::size_t terms = 0;                ///< QPD terms spliced
  qcut::Real estimate = 0.0;
  qcut::Real ci_halfwidth = 0.0;
  std::uint64_t shots_used = 0;
  bool has_exact = false;
  qcut::Real exact = 0.0;
};

/// Runs `req` stage by stage. The request must carry QASM text and no
/// epsilon, shot cap, deadline or cancel token — the bench's requests never
/// do, and those are the svc::estimate branches the stages leave out.
StagedRun run_staged(const qcut::svc::EstimateRequest& req);

/// Times only the import and exact-reference stages of `req` — the work a
/// daemon cache hit still repeats.
StageTimes time_import_and_exact(const qcut::svc::EstimateRequest& req);

/// Sums behind the per-layer metrics; every value is reported per request.
struct LayerSums {
  std::size_t staged = 0;   ///< requests run through run_staged
  StageTimes ms;            ///< stage times summed over them
  double wall_ms = 0.0;     ///< their staged wall times, summed
  double terms = 0.0;
  std::size_t import_n = 0; ///< requests whose import was timed
  double import_ms = 0.0;
  std::size_t exact_n = 0;  ///< requests whose exact reference was timed
  double exact_ms = 0.0;
  std::size_t counted = 0;  ///< requests the counter sums cover
  qcut::obs::MetricsSnapshot counters;
  double counted_wall_ms = 0.0;  ///< wall time the pool counters cover

  void add_staged(const StagedRun& r);
  void add_counters(const qcut::obs::MetricsSnapshot& delta);
};

/// plan.*, cut.*, exec.*, sim.* and pool.* metrics. `pool_threads` is the
/// size of the pool the counters came from.
std::vector<Metric> layer_metrics(const LayerSums& s, std::size_t pool_threads);

double ms_since(std::uint64_t start_ns);
std::uint64_t now_ns();

}  // namespace qbench
