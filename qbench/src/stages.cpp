#include "stages.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "qcut/cut/circuit_cutter.hpp"
#include "qcut/plan/planned_executor.hpp"
#include "qcut/sim/qasm_import.hpp"
#include "qcut/sim/statevector.hpp"

namespace qbench {

namespace obs = qcut::obs;
using qcut::obs::Counter;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double ms_since(std::uint64_t start_ns) { return static_cast<double>(now_ns() - start_ns) * 1e-6; }

StagedRun run_staged(const qcut::svc::EstimateRequest& req) {
  if (req.circuit_qasm.empty() || req.circuit.has_value() || req.epsilon != 0.0 ||
      req.shot_cap != 0 || req.deadline_ms != 0 || req.cancel != nullptr ||
      req.run_cfg.shots == 0) {
    throw std::invalid_argument("run_staged: request uses an svc::estimate branch it omits");
  }
  StagedRun out;
  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  const std::uint64_t start = now_ns();
  std::uint64_t t = start;
  auto lap = [&t]() {
    const std::uint64_t now = now_ns();
    const double ms = static_cast<double>(now - t) * 1e-6;
    t = now;
    return ms;
  };

  const qcut::Circuit circ =
      qcut::strip_trailing_measurements(qcut::import_qasm(req.circuit_qasm, "<request>"));
  out.ms.import_ms = lap();

  const qcut::CutPlan plan = qcut::CutPlanner(circ, req.planner).plan();
  out.ms.plan_ms = lap();

  const qcut::PlannedExecutor executor(circ, plan);
  const qcut::Qpd qpd = executor.build_qpd(req.observable);
  out.terms = qpd.terms().size();
  out.ms.splice_ms = lap();

  qcut::CutRunConfig eff = req.run_cfg;
  eff.backend = qcut::PlannedExecutor::routed_backend(qpd, eff);
  out.ms.route_ms = lap();

  // Above the statevector cap the exact stage is only its width test.
  const bool narrow = circ.n_qubits() <= qcut::Statevector::kMaxQubits;
  const qcut::Real exact =
      narrow ? qcut::uncut_circuit_expectation(circ, req.observable.to_string()) : 0.0;
  out.ms.exact_ms = lap();

  const qcut::CutRunResult res =
      narrow ? qcut::run_qpd_estimate(qpd, exact, eff) : qcut::run_qpd_estimate(qpd, eff);
  out.ms.run_ms = lap();
  out.wall_ms = static_cast<double>(t - start) * 1e-6;
  out.counters = obs::metrics_delta(before, obs::metrics_snapshot());

  out.estimate = res.estimate;
  out.shots_used = res.details.shots_used;
  out.has_exact = res.has_exact;
  out.exact = res.exact;
  out.ci_halfwidth = qcut::svc::ci_halfwidth(res.estimate, res.details.kappa, out.shots_used);
  return out;
}

StageTimes time_import_and_exact(const qcut::svc::EstimateRequest& req) {
  StageTimes out;
  std::uint64_t t = now_ns();
  const qcut::Circuit circ =
      qcut::strip_trailing_measurements(qcut::import_qasm(req.circuit_qasm, "<request>"));
  out.import_ms = ms_since(t);
  t = now_ns();
  const bool narrow = circ.n_qubits() <= qcut::Statevector::kMaxQubits;
  const qcut::Real exact =
      narrow ? qcut::uncut_circuit_expectation(circ, req.observable.to_string()) : 0.0;
  out.exact_ms = ms_since(t);
  if (!std::isfinite(exact)) {
    throw std::runtime_error("exact reference is not finite");
  }
  return out;
}

void LayerSums::add_staged(const StagedRun& r) {
  ++staged;
  ms.import_ms += r.ms.import_ms;
  ms.plan_ms += r.ms.plan_ms;
  ms.splice_ms += r.ms.splice_ms;
  ms.route_ms += r.ms.route_ms;
  ms.exact_ms += r.ms.exact_ms;
  ms.run_ms += r.ms.run_ms;
  wall_ms += r.wall_ms;
  terms += static_cast<double>(r.terms);
  ++import_n;
  import_ms += r.ms.import_ms;
  ++exact_n;
  exact_ms += r.ms.exact_ms;
}

void LayerSums::add_counters(const obs::MetricsSnapshot& delta) {
  for (std::size_t i = 0; i < counters.values.size(); ++i) {
    counters.values[i] += delta.values[i];
  }
}

std::vector<Metric> layer_metrics(const LayerSums& s, std::size_t pool_threads) {
  const auto per = [](double v, std::size_t n) { return n == 0 ? 0.0 : v / static_cast<double>(n); };
  const auto ratio = [](double num, double den) { return den == 0.0 ? 0.0 : num / den; };
  const auto c = [&s](Counter k) { return static_cast<double>(s.counters[k]); };
  const double kernel_ops = c(Counter::kDispatchDense1q) + c(Counter::kDispatchDense2q) +
                            c(Counter::kDispatchGeneric) + c(Counter::kDispatchDiagonal) +
                            c(Counter::kDispatchSparsePhase) + c(Counter::kDispatchPermutation);
  const double busy_ms = c(Counter::kPoolBusyNanos) * 1e-6;
  return {
      {"plan.search_ms", per(s.ms.plan_ms, s.staged), "ms"},
      {"plan.search_share", ratio(s.ms.plan_ms, s.wall_ms), "ratio"},
      {"plan.nodes", per(c(Counter::kPlanNodesExplored), s.counted), "count"},
      {"cut.splice_ms", per(s.ms.splice_ms, s.staged), "ms"},
      {"cut.terms", per(s.terms, s.staged), "count"},
      {"exec.run_ms", per(s.ms.run_ms, s.staged), "ms"},
      {"exec.run_share", ratio(s.ms.run_ms, s.wall_ms), "ratio"},
      {"exec.terms_enumerated", per(c(Counter::kBranchCacheMiss), s.counted), "count"},
      {"exec.branches_enumerated", per(c(Counter::kBranchesEnumerated), s.counted), "count"},
      {"exec.branches_pruned", per(c(Counter::kBranchesPruned), s.counted), "count"},
      {"cut.fragment_units", per(c(Counter::kFragmentUnits), s.counted), "count"},
      {"cut.prefix_runs", per(c(Counter::kFragmentPrefixRuns), s.counted), "count"},
      {"cut.skeleton_misses", per(c(Counter::kSkeletonCacheMiss), s.counted), "count"},
      {"cut.skeleton_hit_ratio",
       ratio(c(Counter::kSkeletonCacheHit),
             c(Counter::kSkeletonCacheHit) + c(Counter::kSkeletonCacheMiss)),
       "ratio"},
      {"sim.kernel_ops", per(kernel_ops, s.counted), "count"},
      {"sim.fusion_ratio", ratio(c(Counter::kFusionOpsAfter), c(Counter::kFusionOpsBefore)),
       "ratio"},
      {"sim.import_ms", per(s.import_ms, s.import_n), "ms"},
      {"sim.exact_ms", per(s.exact_ms, s.exact_n), "ms"},
      {"pool.tasks", per(c(Counter::kPoolTasks), s.counted), "count"},
      {"pool.busy_ms", per(busy_ms, s.counted), "ms"},
      {"pool.queue_wait_ms", per(c(Counter::kPoolQueueWaitNanos) * 1e-6, s.counted), "ms"},
      {"pool.utilization",
       ratio(busy_ms, s.counted_wall_ms * static_cast<double>(pool_threads)), "ratio"},
  };
}

}  // namespace qbench
