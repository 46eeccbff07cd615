// The service front door: one typed request in, one typed result out.
//
// EstimateRequest is the single public entry point for "estimate ⟨O⟩ of this
// circuit to accuracy ε": it carries the circuit (QASM text or IR), a typed
// Observable, the accuracy/shot policy, and the planner and execution
// configuration. svc::estimate() validates the request up front (observable
// alphabet and width, identity rejection, QASM parse) so errors surface at
// the door with request-level diagnostics instead of three layers down.
//
// plan_and_run() is implemented on top of estimate() (without caches), and
// the qcut-server daemon calls estimate() with its process-lifetime
// ServiceCaches. Both paths run the identical code: the shot budget is
// resolved once (resolve_shots), an EvalEntry (svc/cache.hpp) is taken from
// the caches or built privately, and its executor's run_with runs on its
// backend. So a daemon answer is bit-identical to an in-process run of the
// same request (pinned by test_service.cpp). Cache hits only ever save time.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "qcut/common/cancel.hpp"
#include "qcut/common/request_context.hpp"
#include "qcut/common/threadpool.hpp"
#include "qcut/plan/cut_planner.hpp"
#include "qcut/plan/planned_executor.hpp"
#include "qcut/sim/observable.hpp"

namespace qcut {
namespace svc {

class ServiceCaches;

struct EstimateRequest {
  /// The circuit, as OpenQASM 2 text. Used when `circuit` is not set;
  /// trailing terminal measurements are stripped on import (the observable
  /// below defines the measurement).
  std::string circuit_qasm;
  /// The circuit, as IR. Wins over circuit_qasm when set.
  std::optional<Circuit> circuit;
  /// Pauli-string observable; must match the circuit width and must not be
  /// the identity (whose expectation is identically 1 — nothing to estimate).
  Observable observable;
  /// Target absolute accuracy ε. > 0 overrides planner.target_accuracy; the
  /// planner predicts (and shots = 0 runs) the κ²/ε² budget for it.
  Real epsilon = 0.0;
  /// Hard ceiling on the executed shot count, applied after the ε-predicted
  /// budget is resolved (resolve_shots); it also stands in for a prediction
  /// past 1e18. 0 → uncapped.
  std::uint64_t shot_cap = 0;
  /// Echoed into the result's RunReport and trace spans; assign unique ids
  /// to correlate daemon-side artifacts with client requests.
  std::string request_id;
  /// Deadline in milliseconds, steady-clock, measured from whenever the
  /// deadline is armed (the daemon arms at admission so queue wait counts;
  /// in-process calls arm at estimate() entry). Exceeding it aborts the run
  /// with ErrorCode::kDeadlineExceeded at the next poll. 0 → none.
  std::uint64_t deadline_ms = 0;
  /// Caller-owned cancellation token, polled at coarse quantum boundaries
  /// throughout planning and execution; cancel() aborts the run with
  /// ErrorCode::kCancelled. Optional — when null and deadline_ms > 0,
  /// estimate() runs against an internal deadline-only token.
  CancelToken* cancel = nullptr;
  PlannerConfig planner;
  /// Execution config: shots (0 → predicted budget), seed, backend. The
  /// run's pool is the caller's RequestContext::pool.
  CutRunConfig run_cfg;
};

/// The plan's headline numbers, detached from the full CutPlan so wire
/// clients get them without shipping the plan structure.
struct PlanSummary {
  std::uint64_t cuts = 0;
  std::uint64_t gate_cuts = 0;
  Real total_kappa = 1.0;
  Real predicted_shots = 0.0;
  int max_width = 0;
  int max_sim_width = 0;
};

struct EstimateResult {
  Real estimate = 0.0;
  /// 95% CI half-width from the κ-bounded estimator variance:
  /// 1.96·sqrt(max(κ² − estimate², 0) / shots).
  Real ci_halfwidth = 0.0;
  bool has_exact = false;
  Real exact = 0.0;         ///< monolithic reference (has_exact only)
  std::uint64_t shots_used = 0;
  Real kappa = 1.0;
  PlanSummary plan_summary;
  // Cache provenance of THIS response (false on cacheless paths).
  bool plan_cache_hit = false;
  bool eval_cache_hit = false;
  bool coalesced = false;   ///< answered by an in-flight twin (daemon only)
  /// Full artifacts for in-process callers; the wire protocol ships the
  /// summary plus run.report JSON instead. The plan is immutable; a cached
  /// one is shared with the plan cache, not copied.
  std::shared_ptr<const CutPlan> plan;
  CutRunResult run;
};

/// Validates and executes one request. `caches` null → plan and build a
/// private EvalEntry (the plan_and_run path); non-null → serve the parsed
/// QASM circuit, the plan and the warm EvalEntry (QPD, backend, exact
/// reference) from the caches when keys match, bit-identically.
/// Throws qcut::Error with request-level diagnostics on invalid input.
EstimateResult estimate(const EstimateRequest& req, ServiceCaches* caches = nullptr);

/// The CI half-width formula above, exposed for clients and benches.
Real ci_halfwidth(Real estimate, Real kappa, std::uint64_t shots);

}  // namespace svc
}  // namespace qcut
