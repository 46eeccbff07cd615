// End-to-end planned execution: turn a CutPlan into a runnable estimate.
//
// The executor instantiates the plan's per-cut protocols from their typed
// ProtocolSpec descriptors (wire cuts via make_protocol; gate cuts by
// factoring the host op into locals ⊗ e^{iθZZ}), splices everything into the
// host circuit via cut_circuit_sites (the product QPD of the n cuts,
// κ = Π κ_i), and estimates the observable on the batched execution engine —
// the same engine and backends CutExecutor uses for single-wire experiments.
//
// The spliced term circuits are an IR, not an execution obligation: the
// exact backend (BatchedBranchBackend) simulates each fragment of every term
// independently and recombines through the cut boundaries' classical bits.
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
#include <string>
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

  /// The joint (product) QPD realizing all planned cuts for `observable`.
  /// A plan with zero cuts yields the single-term "QPD" that just runs the
  /// circuit and measures the observable.
  Qpd build_qpd(const Observable& observable) const;
  /// String shim: parses (and so validates) the Pauli string, then delegates.
  Qpd build_qpd(const std::string& observable) const;

  /// One estimation run. cfg.shots = 0 uses the plan's predicted budget κ²/ε²
  /// (rounded up). cfg.backend runs as given.
  ///
  /// The exact uncut expectation is attached when the circuit is narrow
  /// enough to simulate monolithically; otherwise result.has_exact is false.
  CutRunResult run(const Observable& observable, const CutRunConfig& cfg) const;
  /// String shim: parses the Pauli string, then delegates.
  CutRunResult run(const std::string& observable, const CutRunConfig& cfg) const;

  /// The monolithic uncut ⟨O⟩ of the circuit, or nullopt when the circuit is
  /// wider than Statevector::kMaxQubits (no cheap exact value exists there).
  std::optional<Real> exact_reference(const Observable& observable) const;

  /// Service hook: run() with the QPD construction and the exact reference
  /// hoisted out. `qpd` must be build_qpd(observable) and `exact`
  /// exact_reference(observable) of THIS executor (possibly cached across
  /// requests by the service layer); everything else — shot-budget
  /// resolution, backend, report fields — is identical to run(), so
  /// cached inputs estimate bit-identically to freshly built ones.
  CutRunResult run_with(const Qpd& qpd, std::optional<Real> exact,
                        const CutRunConfig& cfg) const;

  /// Returns cfg.backend: a planned run executes the kind it asks for.
  /// Kept only because qbench/src/stages.cpp calls it; it goes with that
  /// call in the next benchmark change.
  static BackendKind routed_backend(const Qpd& qpd, const CutRunConfig& cfg);

 private:
  Circuit circ_;
  CutPlan plan_;
  std::vector<std::shared_ptr<const CutProtocol>> protocols_;
};

struct PlannedRunResult {
  CutPlan plan;
  CutRunResult run;
};

/// One call from circuit to answer: analyze, plan (throws if infeasible),
/// and execute. rcfg.shots = 0 runs at the planner-predicted budget.
/// Implemented on the service front door (svc::estimate) without caching, so
/// the in-process and daemon paths can never drift.
PlannedRunResult plan_and_run(const Circuit& circ, const Observable& observable,
                              const PlannerConfig& pcfg, const CutRunConfig& rcfg);
/// String shim: parses the Pauli string, then delegates.
PlannedRunResult plan_and_run(const Circuit& circ, const std::string& observable,
                              const PlannerConfig& pcfg, const CutRunConfig& rcfg);

}  // namespace qcut
