// The two workload runners (in process and through qcut-server) and the
// pieces they share: timed-phase selection, end-to-end and traced-run
// metrics, wire-frame costs and bit-exact result comparison.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "qcut/svc/api.hpp"
#include "qcut/svc/wire.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace qbench {

/// Untimed set-up passes per run; setup_s reports their median.
inline constexpr int kSetupReps = 3;
/// Timed phases run past --seconds until this many requests are answered,
/// so the p90 always has 10 samples beyond it.
inline constexpr std::size_t kMinRequests = 100;

/// Host CPU steal above which a timed phase counts as disturbed.
inline constexpr double kQuietSteal = 0.05;
/// Timed phases per run at most: a disturbed phase is measured up to twice
/// more, on the requests that follow it in the stream.
inline constexpr int kMaxPhases = 3;

/// A traced run fails when its stages time less than this share of the
/// plain svc::estimate call on the same request (median over requests).
inline constexpr double kMinStageCoverage = 0.95;

struct RunArgs {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t start_ns = 0;  ///< driver start, for the first set-up pass
  std::string server_bin;      ///< qcut-server executable (daemon workloads)
  std::string work_dir;        ///< scratch files (the daemon's port file)
};

struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Host steal during each timed phase, and during the one reported.
  std::vector<double> phase_steal;
  double steal = 0.0;
  /// Records a failed request and marks the run incorrect.
  void fail(const std::string& why);
};

RunOutcome run_inprocess(const RunArgs& args);
RunOutcome run_daemon(const RunArgs& args);

/// One timed phase: its end-to-end metrics and the host steal during it.
struct Phase {
  std::vector<Metric> metrics;
  double steal = 0.0;
};

/// Runs `phase` until one sees host steal of at most kQuietSteal, at most
/// kMaxPhases times, and keeps the metrics of the least disturbed one. The
/// selection looks only at the host, never at the measured values.
void quietest_phase(const std::function<Phase()>& phase, RunOutcome* out);

/// setup_s, requests_per_s, latency_ms.p50/.p90, cpu_ms_per_request and
/// peak_rss_mb of one timed phase.
std::vector<Metric> end_to_end_metrics(double setup_s, std::size_t answered, double wall_s,
                                       const std::vector<double>& latency_ms, double cpu_s,
                                       double peak_rss_mb);

/// Encoded sizes and encode/decode times of request and response frames.
struct WireSums {
  std::size_t n = 0;
  double request_bytes = 0.0;
  double response_bytes = 0.0;
  double encode_us = 0.0;
  double decode_us = 0.0;
  void add(const qcut::svc::WireEstimateRequest& req, const qcut::svc::WireEstimateResponse& resp);
  std::vector<Metric> metrics() const;
};

/// The response qcut-server would send for `res` (same field mapping).
qcut::svc::WireEstimateResponse to_wire_response(const qcut::svc::EstimateResult& res);

/// Everything a traced run accumulates besides the layer sums.
struct TraceSums {
  WireSums wire;
  std::vector<double> hot_ms;    ///< requests served from the service caches
  std::vector<double> cold_ms;   ///< requests that missed them
  std::vector<double> plain_ms;  ///< in-process svc::estimate, no caches
  std::vector<double> staged_ms;     ///< staged composition wall time
  std::vector<double> stage_sum_ms;  ///< its stage times, summed
  double plan_hits = 0.0, plan_misses = 0.0;
  double eval_hits = 0.0, eval_misses = 0.0;
  double requests = 0.0, coalesced = 0.0, rejected = 0.0;
};

/// The svc.*, wire.* and trace.* metrics. trace.stage_coverage is the
/// median over requests of stage_sum / plain; below kMinStageCoverage the
/// run fails.
std::vector<Metric> trace_metrics(const TraceSums& t, RunOutcome* out);

/// Estimate bits and shot count are equal.
bool same_answer(double a, std::uint64_t shots_a, double b, std::uint64_t shots_b);

}  // namespace qbench
