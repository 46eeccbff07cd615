// High-level façade: pick a protocol, run a cut experiment, get estimate and
// error. This is the API the examples and the Fig. 6 harness sit on.
//
// Estimation runs on the qcut::exec engine: shots are planned as term
// batches, executed on the configured ExecutionBackend, and recombined
// deterministically. BatchedBranchBackend (binomial sampling from each term's
// exact P(−1), computed fragment by fragment) is the default for planned and
// unplanned runs alike; SerialShotBackend is the full per-shot statevector
// reference.
#pragma once

#include <memory>

#include "qcut/cut/wire_cut.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/obs/run_report.hpp"
#include "qcut/qpd/estimator.hpp"

namespace qcut {

struct CutRunConfig {
  std::uint64_t shots = 1000;
  AllocRule rule = AllocRule::kProportional;  ///< the paper's allocation
  std::uint64_t seed = 1234;
  /// Execution backend. This absorbed the retired `fast` bool (PR 9): the
  /// old `fast = false` is spelled `backend = BackendKind::kSerialShot`.
  BackendKind backend = BackendKind::kBatchedBranch;
  /// Thread pool for the engine's batch-parallel driver; nullptr → global.
  ThreadPool* pool = nullptr;
  /// Shots per term batch (parallelism granularity, never affects the law).
  std::uint64_t max_batch_shots = ShotPlan::kDefaultMaxBatchShots;
  /// Service-layer hook: run against this caller-owned backend (bound to the
  /// same QPD, outliving the call) instead of constructing one — a warm
  /// backend carries branch/skeleton caches across requests. `backend` must
  /// name its kind (for the report).
  const ExecutionBackend* shared_backend = nullptr;
  /// Capture the RunReport's counters from a per-thread sink instead of a
  /// global-registry delta. Only accurate when the whole run executes on the
  /// calling thread (the service layer guarantees this by running requests
  /// on pool workers, where the engine and fragment evaluator fall back
  /// inline); the default global delta is exact for run-at-a-time drivers.
  bool scoped_report = false;
};

struct CutRunResult {
  Real estimate = 0.0;     ///< sampled cut estimate of ⟨O⟩
  Real exact = 0.0;        ///< true ⟨O⟩ on the uncut wire (NaN if !has_exact)
  Real abs_error = 0.0;    ///< |estimate − exact| (Eq. 28; NaN if !has_exact)
  /// False when the uncut reference is unavailable — a circuit too wide for
  /// monolithic simulation has no cheap exact ⟨O⟩ (that is the point of the
  /// fragment path); compare against an analytic value instead.
  bool has_exact = true;
  EstimationResult details;
  /// Resource accounting for this run (metrics-registry delta + config);
  /// serialize with report.to_json(). Filled whether or not metrics are
  /// enabled — disabled runs just carry zero counters.
  obs::RunReport report;
};

/// Estimates `qpd` on the engine `cfg` configures and packages the result
/// against the caller-supplied exact reference value. The shared backend of
/// CutExecutor::run and the planner's PlannedExecutor.
CutRunResult run_qpd_estimate(const Qpd& qpd, Real exact, const CutRunConfig& cfg);

/// As above without a reference value (has_exact = false): for circuits too
/// wide to simulate monolithically, where no exact ⟨O⟩ is computable.
CutRunResult run_qpd_estimate(const Qpd& qpd, const CutRunConfig& cfg);

class CutExecutor {
 public:
  explicit CutExecutor(std::shared_ptr<const WireCutProtocol> protocol);

  const WireCutProtocol& protocol() const noexcept { return *protocol_; }

  /// One estimation run with the given shot budget.
  CutRunResult run(const CutInput& input, const CutRunConfig& cfg) const;

  /// Mean absolute error over `trials` independent runs (fixed input). The
  /// QPD, plan, and branch cache are built once and shared across trials.
  Real mean_abs_error(const CutInput& input, const CutRunConfig& cfg, int trials) const;

 private:
  std::shared_ptr<const WireCutProtocol> protocol_;
};

/// Factory over the typed protocol descriptor — the single instantiation
/// point the planner and the executors share. kZzGate yields a pure-rotation
/// ZzGateCut (identity locals; the executor supplies host-specific locals
/// itself); kMixedNme instantiates the Werner resource at q_I = spec.param.
std::shared_ptr<const CutProtocol> make_protocol(const ProtocolSpec& spec);

/// Wire-cut-typed convenience over make_protocol(spec): the CutExecutor
/// constructor wants a WireCutProtocol, and every wire-cut ProtocolSpec
/// instantiates one. Throws qcut::Error for gate-cut specs (kZzGate).
std::shared_ptr<const WireCutProtocol> make_wire_protocol(const ProtocolSpec& spec);

}  // namespace qcut
