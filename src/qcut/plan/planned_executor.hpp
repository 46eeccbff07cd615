// End-to-end planned execution: turn a CutPlan into a runnable estimate.
//
// The executor instantiates the plan's per-cut protocols from their typed
// ProtocolSpec descriptors (wire cuts via make_protocol; gate cuts by
// factoring the host op into locals ⊗ e^{iθZZ}), splices everything into the
// host circuit via cut_circuit_sites (the product QPD of the n cuts,
// κ = Π κ_i), and estimates the observable through run_with, the single
// planned run: it resolves the shot budget and calls run_qpd_estimate on the
// backend it is handed — the same path CutExecutor uses for single-wire
// experiments.
//
// The spliced term circuits are an IR, not an execution obligation: the
// exact backend (BatchedBranchBackend) runs the factored QPD (qpd_for),
// whose terms carry no circuit. It builds each distinct fragment variant
// from the cut layout, simulates it once, and recombines every term through
// the cut boundaries' classical bits.
// Width is then bounded by the plan's max *merged* fragment width
// (CutPlan::max_sim_width): entangled-resource cuts splice a
// pre-shared-state initialize spanning both sides, so the simulator holds
// their two fragments as one. The planner's merge-aware feasibility keeps
// max_sim_width within the engine cap — a plan that cannot fit is rejected
// (or repaired by granting fewer pairs) at plan time, never discovered as a
// width error at run time.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "qcut/core/cut_executor.hpp"
#include "qcut/plan/cut_planner.hpp"
#include "qcut/sim/observable.hpp"

namespace qcut {

class PlannedExecutor {
 public:
  /// Takes ownership of copies of the circuit and plan; protocols are
  /// instantiated once here (from each cut's ProtocolSpec) and reused across
  /// runs. Gate cuts re-factor their host op so the spliced locals match the
  /// actual gate, not just its entangling angle.
  PlannedExecutor(Circuit circ, CutPlan plan);

  const CutPlan& plan() const noexcept { return plan_; }
  const Circuit& circuit() const noexcept { return circ_; }

  /// The joint (product) QPD realizing all planned cuts for `observable`,
  /// every term circuit spliced. A plan with zero cuts yields the
  /// single-term "QPD" that just runs the circuit and measures the
  /// observable. Traced as `plan.build_qpd`.
  Qpd build_qpd(const Observable& observable) const;

  /// The QPD a `kind` backend runs: factored (terms without circuits, built
  /// from the cut layout) for kBatchedBranch, spliced for kSerialShot.
  /// Traced as `plan.build_qpd`.
  Qpd qpd_for(const Observable& observable, BackendKind kind) const;

  /// One estimation run: builds qpd_for(observable, cfg.backend), the exact
  /// reference and a cfg.backend backend, then calls run_with.
  CutRunResult run(const Observable& observable, const CutRunConfig& cfg) const;

  /// The monolithic uncut ⟨O⟩ of the circuit, or nullopt when the circuit is
  /// wider than Statevector::kMaxQubits (no cheap exact value exists there).
  std::optional<Real> exact_reference(const Observable& observable) const;

  /// The single planned run. `qpd` must be a QPD of `observable` from this
  /// executor (build_qpd or qpd_for), `exact`
  /// exact_reference(observable) of THIS executor and `backend` bound to
  /// `qpd` (all possibly cached across requests by the service layer; a
  /// warm backend estimates bit-identically to a fresh one). cfg.shots = 0
  /// runs the plan's predicted budget (resolve_shots); cfg.backend is not
  /// read, the report names `backend`. The exact uncut expectation is
  /// attached when given; otherwise result.has_exact is false.
  CutRunResult run_with(const Qpd& qpd, std::optional<Real> exact, const CutRunConfig& cfg,
                        const ExecutionBackend& backend) const;

  /// Returns cfg.backend: a planned run executes the kind it asks for.
  /// Kept only because qbench/src/stages.cpp calls it; it goes with that
  /// call in the next benchmark change.
  static BackendKind routed_backend(const Qpd& qpd, const CutRunConfig& cfg);

 private:
  Circuit circ_;
  CutPlan plan_;
  std::vector<std::shared_ptr<const CutProtocol>> protocols_;
};

/// The shot count a run of `plan` executes: `requested` when non-zero, else
/// the predicted budget κ²/ε² rounded up; then at most `cap` when cap > 0. A
/// prediction above 1e18 (past the integer range) falls back to the cap, and
/// throws when there is none.
std::uint64_t resolve_shots(const CutPlan& plan, std::uint64_t requested, std::uint64_t cap = 0);

struct PlannedRunResult {
  std::shared_ptr<const CutPlan> plan;
  CutRunResult run;
};

/// One call from circuit to answer: analyze, plan (throws if infeasible),
/// and execute. rcfg.shots = 0 runs at the planner-predicted budget.
/// Implemented on the service front door (svc::estimate) without caching, so
/// the in-process and daemon paths can never drift.
PlannedRunResult plan_and_run(const Circuit& circ, const Observable& observable,
                              const PlannerConfig& pcfg, const CutRunConfig& rcfg);

}  // namespace qcut
