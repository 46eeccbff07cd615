#include "qcut/svc/api.hpp"

#include <algorithm>
#include <cmath>

#include "qcut/common/cancel.hpp"
#include "qcut/common/error.hpp"
#include "qcut/common/fault.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/obs/trace.hpp"
#include "qcut/sim/qasm_import.hpp"
#include "qcut/svc/cache.hpp"

namespace qcut {
namespace svc {

namespace {

Circuit parse_circuit(const EstimateRequest& req) {
  if (req.circuit.has_value()) {
    return *req.circuit;
  }
  QCUT_CHECK(!req.circuit_qasm.empty(),
             "svc::estimate: request carries neither a circuit IR nor QASM text");
  return strip_trailing_measurements(import_qasm(req.circuit_qasm, "<request>"));
}

/// The request's circuit, hashed when caches are in play. A QASM request
/// with caches is served from the circuit memo when its exact bytes were
/// parsed before; IR requests and cache-less calls always resolve afresh.
/// `*memoize` is set when the caller should insert the parse into the memo —
/// estimate() does so only once the request has passed validation and its
/// plan is resolved, so requests that never produce a plan pin nothing.
ParsedCircuit resolve_circuit(const EstimateRequest& req, ServiceCaches* caches,
                              bool* memoize) {
  *memoize = false;
  const bool memo = caches != nullptr && !req.circuit.has_value();
  if (memo) {
    if (std::shared_ptr<const ParsedCircuit> hit = caches->circuits.get(req.circuit_qasm)) {
      return *hit;
    }
  }
  ParsedCircuit parsed;
  try {
    parsed.circuit = std::make_shared<const Circuit>(parse_circuit(req));
  } catch (const Error& e) {
    // QASM parse problems are the requester's, not the service's.
    throw Error(e.what(), ErrorCode::kInvalidRequest);
  }
  if (caches != nullptr) {
    parsed.hash = circuit_hash(*parsed.circuit);
  }
  *memoize = memo;
  return parsed;
}

PlanSummary summarize(const CutPlan& plan) {
  PlanSummary s;
  s.cuts = plan.cuts.size();
  s.gate_cuts = plan.gate_cut_count();
  s.total_kappa = plan.total_kappa;
  s.predicted_shots = plan.predicted_shots;
  s.max_width = plan.max_width;
  s.max_sim_width = plan.max_sim_width;
  return s;
}

}  // namespace

Real ci_halfwidth(Real estimate, Real kappa, std::uint64_t shots) {
  if (shots == 0) {
    return 0.0;
  }
  // Per-sample outcomes are κ-bounded, so Var <= κ² − E[X]²; the 95% normal
  // quantile turns the SEM bound into a CI half-width.
  const Real var = std::max(kappa * kappa - estimate * estimate, 0.0);
  return 1.96 * std::sqrt(var / static_cast<Real>(shots));
}

EstimateResult estimate(const EstimateRequest& req, ServiceCaches* caches) {
  obs::TraceSpan span("svc.estimate");

  // Cancellation scope for the whole request: the caller's token when given,
  // else a local deadline-only token when the request carries a deadline.
  // Every layer below polls the installed token at its quantum boundary.
  CancelToken deadline_token;
  CancelToken* token = req.cancel;
  if (token == nullptr && req.deadline_ms > 0) {
    token = &deadline_token;
  }
  if (token != nullptr && req.deadline_ms > 0 && !token->has_deadline()) {
    token->set_deadline_after_ms(req.deadline_ms);
  }
  RequestContext ctx = current_request_context();
  if (token != nullptr) {
    ctx.cancel = token;
  }
  const ScopedRequestContext scope(ctx);
  cancel_poll();  // an already-tripped token fails at the door, not mid-plan

  bool memoize = false;
  const ParsedCircuit parsed = resolve_circuit(req, caches, &memoize);
  const Circuit& circ = *parsed.circuit;

  // Front-door validation: every failure below names the request's problem
  // instead of surfacing as a cutter error three layers down, and carries
  // kInvalidRequest so wire clients can classify it as permanent.
  if (req.observable.n_qubits() != circ.n_qubits()) {
    throw Error("svc::estimate: observable '" + req.observable.to_string() + "' is " +
                    std::to_string(req.observable.n_qubits()) +
                    " qubits but the circuit has " + std::to_string(circ.n_qubits()),
                ErrorCode::kInvalidRequest);
  }
  if (req.observable.is_identity()) {
    throw Error(
        "svc::estimate: the identity observable has expectation 1 identically — "
        "nothing to estimate",
        ErrorCode::kInvalidRequest);
  }
  if (req.epsilon < 0.0) {
    throw Error("svc::estimate: epsilon must be >= 0", ErrorCode::kInvalidRequest);
  }

  fault::maybe_inject(fault::Site::kSvcPlan);

  PlannerConfig pcfg = req.planner;
  if (req.epsilon > 0.0) {
    pcfg.target_accuracy = req.epsilon;
  }

  EstimateResult res;

  // Plan: served from the cross-request cache when the (circuit, planner
  // config) key matches; the planner is deterministic, so a cached plan IS
  // the plan a fresh search would return.
  std::string pkey;
  if (caches != nullptr) {
    pkey = plan_key(parsed.hash, pcfg);
    const auto search = [&] {
      obs::count(obs::Counter::kPlanCacheMiss);  // before the search, so a failed one counts
      return std::make_shared<const CutPlan>(CutPlanner(circ, pcfg).plan());
    };
    res.plan = caches->plans.get_or_build(pkey, search, &res.plan_cache_hit);
    if (res.plan_cache_hit) {
      obs::count(obs::Counter::kPlanCacheHit);
    }
  } else {
    res.plan = std::make_shared<const CutPlan>(CutPlanner(circ, pcfg).plan());
  }
  const CutPlan& plan = *res.plan;
  if (memoize) {
    caches->circuits.put(req.circuit_qasm, std::make_shared<const ParsedCircuit>(parsed));
  }

  CutRunConfig rcfg = req.run_cfg;
  rcfg.shots = resolve_shots(plan, rcfg.shots, req.shot_cap);

  // Every request runs on an EvalEntry: a cached one (warm backend, built
  // for rcfg.backend: the kind is part of the eval key) when caches are
  // given, else a private one. Either way the run below is the same code.
  const auto build = [&] {
    return EvalEntry::build(PlannedExecutor(circ, plan), req.observable, rcfg.backend);
  };
  std::shared_ptr<EvalEntry> entry;
  if (caches != nullptr) {
    const auto miss = [&] {
      obs::count(obs::Counter::kEvalCacheMiss);
      return build();
    };
    entry = caches->evals.get_or_build(eval_key(pkey, req.observable, rcfg.backend), miss,
                                       &res.eval_cache_hit);
    if (res.eval_cache_hit) {
      obs::count(obs::Counter::kEvalCacheHit);
    }
  } else {
    entry = build();
  }
  res.run = entry->executor.run_with(entry->qpd, entry->exact, rcfg, *entry->backend);

  res.run.report.request_id = req.request_id;
  res.estimate = res.run.estimate;
  res.has_exact = res.run.has_exact;
  res.exact = res.run.exact;
  res.shots_used = res.run.details.shots_used;
  res.kappa = res.run.details.kappa;
  res.ci_halfwidth = ci_halfwidth(res.estimate, res.kappa, res.shots_used);
  res.plan_summary = summarize(plan);
  return res;
}

}  // namespace svc
}  // namespace qcut
