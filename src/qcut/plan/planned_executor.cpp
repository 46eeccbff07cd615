#include "qcut/plan/planned_executor.hpp"

#include <cmath>

#include "qcut/obs/trace.hpp"
#include "qcut/sim/statevector.hpp"
#include "qcut/svc/api.hpp"

namespace qcut {

PlannedExecutor::PlannedExecutor(Circuit circ, CutPlan plan)
    : circ_(std::move(circ)), plan_(std::move(plan)) {
  protocols_.reserve(plan_.cuts.size());
  for (const PlannedCut& pc : plan_.cuts) {
    if (pc.spec.id == ProtocolId::kZzGate) {
      // Re-factor the host op: the plan carries only the entangling angle θ;
      // the spliced branches also need the gate's local factors.
      QCUT_CHECK(pc.site.kind == CutKind::kGate && pc.site.op_index < circ_.size(),
                 "PlannedExecutor: gate-cut site out of range");
      const ZzFactorization f = zz_factor_diagonal(circ_.ops()[pc.site.op_index].matrix());
      QCUT_CHECK(f.ok, "PlannedExecutor: gate-cut host op is not a diagonal two-qubit unitary");
      protocols_.push_back(std::make_shared<ZzGateCut>(f.theta, f.local_a, f.local_b));
    } else {
      protocols_.push_back(make_protocol(pc.spec));
    }
  }
}

Qpd PlannedExecutor::build_qpd(const Observable& observable) const {
  if (plan_.cuts.empty()) {
    return uncut_qpd(circ_, observable.to_string());
  }
  std::vector<const CutProtocol*> protos;
  protos.reserve(protocols_.size());
  for (const auto& p : protocols_) {
    protos.push_back(p.get());
  }
  return cut_circuit_sites(circ_, plan_.sites(), protos, observable.to_string());
}

Qpd PlannedExecutor::build_qpd(const std::string& observable) const {
  return build_qpd(Observable::parse(observable));
}

BackendKind PlannedExecutor::routed_backend(const Qpd& /*qpd*/, const CutRunConfig& cfg) {
  return cfg.backend;
}

std::optional<Real> PlannedExecutor::exact_reference(const Observable& observable) const {
  // The monolithic uncut reference only exists below the statevector cap —
  // above it the fragment estimate IS the answer.
  if (circ_.n_qubits() > Statevector::kMaxQubits) {
    return std::nullopt;
  }
  obs::TraceSpan span("exact.reference");
  return uncut_circuit_expectation(circ_, observable.to_string());
}

CutRunResult PlannedExecutor::run_with(const Qpd& qpd, std::optional<Real> exact,
                                       const CutRunConfig& cfg) const {
  obs::TraceSpan run_span("planned_run", static_cast<std::uint64_t>(plan_.cuts.size()));
  CutRunConfig eff = cfg;
  if (eff.shots == 0) {
    const Real predicted = std::ceil(plan_.predicted_shots);
    // κ²/ε² grows without bound; casting past the integer range would be UB
    // and silently run a garbage shot count.
    QCUT_CHECK(predicted <= 1e18,
               "PlannedExecutor: predicted shot budget exceeds 1e18 — loosen target_accuracy "
               "or pass an explicit shot count");
    eff.shots = static_cast<std::uint64_t>(predicted);
  }
  CutRunResult res = exact.has_value() ? run_qpd_estimate(qpd, *exact, eff)
                                       : run_qpd_estimate(qpd, eff);
  res.report.shots_budget = plan_.predicted_shots;
  res.report.plan_cuts = plan_.cuts.size();
  res.report.max_fragment_width = plan_.max_width;
  return res;
}

CutRunResult PlannedExecutor::run(const Observable& observable, const CutRunConfig& cfg) const {
  const Qpd qpd = [this, &observable] {
    obs::TraceSpan span("plan.build_qpd");
    return build_qpd(observable);
  }();
  return run_with(qpd, exact_reference(observable), cfg);
}

CutRunResult PlannedExecutor::run(const std::string& observable, const CutRunConfig& cfg) const {
  return run(Observable::parse(observable), cfg);
}

PlannedRunResult plan_and_run(const Circuit& circ, const Observable& observable,
                              const PlannerConfig& pcfg, const CutRunConfig& rcfg) {
  // One front door: build a service request and estimate without caches. The
  // service layer runs the same code with cross-request caches plugged in —
  // and its results are pinned bit-identical to this path by test_service.
  svc::EstimateRequest req;
  req.circuit = circ;
  req.observable = observable;
  req.planner = pcfg;
  req.run_cfg = rcfg;
  const svc::EstimateResult res = svc::estimate(req, /*caches=*/nullptr);
  PlannedRunResult out;
  out.plan = res.plan;
  out.run = res.run;
  return out;
}

PlannedRunResult plan_and_run(const Circuit& circ, const std::string& observable,
                              const PlannerConfig& pcfg, const CutRunConfig& rcfg) {
  return plan_and_run(circ, Observable::parse(observable), pcfg, rcfg);
}

}  // namespace qcut
