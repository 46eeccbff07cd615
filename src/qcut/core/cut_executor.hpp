// High-level façade: pick a protocol, run a cut experiment, get estimate and
// error. This is the API the examples and the Fig. 6 harness sit on.
//
// Every estimate, planned or not, cached or not, ends in run_qpd_estimate:
// shots are planned as term batches, run by run_plan (exec/engine.hpp) on the
// ExecutionBackend the caller passes, and recombined deterministically. No
// config carries a backend object: CutRunConfig::backend only names the kind
// that callers without a backend of their own instantiate.
// BatchedBranchBackend (binomial sampling from each term's exact P(−1),
// computed fragment by fragment) is the default; SerialShotBackend is the
// full per-shot statevector reference.
#pragma once

#include <memory>
#include <optional>

#include "qcut/cut/wire_cut.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/obs/run_report.hpp"
#include "qcut/qpd/estimator.hpp"

namespace qcut {

struct CutRunConfig {
  std::uint64_t shots = 1000;
  AllocRule rule = AllocRule::kProportional;  ///< the paper's allocation
  std::uint64_t seed = 1234;
  /// Backend kind the run paths instantiate (make_backend); a caller that
  /// already holds a backend passes it to run_qpd_estimate instead.
  BackendKind backend = BackendKind::kBatchedBranch;
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
  /// Resource accounting for this run (its own metrics sink + config);
  /// serialize with report.to_json(). Filled whether or not metrics are
  /// enabled — disabled runs just carry zero counters.
  obs::RunReport report;
};

/// The one estimate every run path ends in: plans cfg.shots over `qpd` by
/// cfg.rule (in batches of ShotPlan::kDefaultMaxBatchShots), runs the plan on
/// `backend` (bound to `qpd`) with cfg.seed, and packages the result against
/// `exact` (has_exact = false without one: a circuit too wide to simulate
/// monolithically has no cheap exact ⟨O⟩). report.backend names `backend`.
CutRunResult run_qpd_estimate(const Qpd& qpd, std::optional<Real> exact, const CutRunConfig& cfg,
                              const ExecutionBackend& backend);

/// Forwarders to the above on a fresh make_backend(cfg.backend, qpd), with
/// and without a reference value.
CutRunResult run_qpd_estimate(const Qpd& qpd, Real exact, const CutRunConfig& cfg);
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
