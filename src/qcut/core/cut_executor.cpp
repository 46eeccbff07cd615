#include "qcut/core/cut_executor.hpp"

#include <chrono>
#include <cmath>
#include <limits>

#include "qcut/common/threadpool.hpp"
#include "qcut/cut/distill_cut.hpp"
#include "qcut/cut/gate_cut.hpp"
#include "qcut/cut/harada_cut.hpp"
#include "qcut/cut/mixed_cut.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/cut/peng_cut.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/obs/trace.hpp"
#include "qcut/sim/simd_dispatch.hpp"

namespace qcut {

namespace {

/// Independent master seed per trial, derived deterministically from the
/// run seed (batch substreams are carved from the trial seed by the engine).
std::uint64_t trial_seed(std::uint64_t seed, std::uint64_t trial) {
  std::uint64_t sm = seed ^ (0x9e3779b97f4a7c15ULL * (trial + 1));
  return splitmix64_next(sm);
}

}  // namespace

CutRunResult run_qpd_estimate(const Qpd& qpd, std::optional<Real> exact, const CutRunConfig& cfg,
                              const ExecutionBackend& backend) {
  CutRunResult res;
  res.has_exact = exact.has_value();
  res.exact = exact.value_or(std::numeric_limits<Real>::quiet_NaN());

  // The run counts into its own sink, on this thread and on every pool task
  // it fans out to, so the report carries exactly this run's counters even
  // while other runs count concurrently. Reads only — the estimate is
  // bit-identical with metrics on or off.
  obs::MetricsSink sink;
  RequestContext ctx = current_request_context();
  ctx.sink = &sink;
  const ScopedRequestContext scope(ctx);
  const auto t0 = std::chrono::steady_clock::now();
  {
    obs::TraceSpan span("qpd.estimate", qpd.size());
    const ShotPlan plan = ShotPlan::allocated(qpd, cfg.shots, cfg.rule);
    res.details = run_plan(qpd, plan, backend, cfg.seed);
  }
  const auto t1 = std::chrono::steady_clock::now();
  res.estimate = res.details.estimate;
  res.abs_error = std::abs(res.estimate - res.exact);

  res.report.metrics_enabled = obs::metrics_enabled();
  res.report.counters = sink.snapshot();
  res.report.backend = backend.name();
  res.report.simd_tier = simd_tier_name(active_simd_tier());
  res.report.pool_threads = request_pool().size();
  res.report.kappa = res.details.kappa;
  res.report.shots_sampled = res.details.shots_used;
  res.report.wall_time_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  return res;
}

CutRunResult run_qpd_estimate(const Qpd& qpd, Real exact, const CutRunConfig& cfg) {
  return run_qpd_estimate(qpd, exact, cfg, *make_backend(cfg.backend, qpd));
}

CutRunResult run_qpd_estimate(const Qpd& qpd, const CutRunConfig& cfg) {
  return run_qpd_estimate(qpd, std::nullopt, cfg, *make_backend(cfg.backend, qpd));
}

CutExecutor::CutExecutor(std::shared_ptr<const WireCutProtocol> protocol)
    : protocol_(std::move(protocol)) {
  QCUT_CHECK(protocol_ != nullptr, "CutExecutor: null protocol");
}

CutRunResult CutExecutor::run(const CutInput& input, const CutRunConfig& cfg) const {
  return run_qpd_estimate(protocol_->build_qpd(input), uncut_expectation(input), cfg);
}

Real CutExecutor::mean_abs_error(const CutInput& input, const CutRunConfig& cfg,
                                 int trials) const {
  QCUT_CHECK(trials >= 1, "mean_abs_error: need at least one trial");
  const Real exact = uncut_expectation(input);
  const Qpd qpd = protocol_->build_qpd(input);
  // Plan and backend (with its branch cache) are shared across trials: the
  // term circuits are enumerated at most once for the whole sweep.
  const ShotPlan plan = ShotPlan::allocated(qpd, cfg.shots, cfg.rule);
  const auto backend = make_backend(cfg.backend, qpd);
  Real acc = 0.0;
  for (int t = 0; t < trials; ++t) {
    const EstimationResult er =
        run_plan(qpd, plan, *backend, trial_seed(cfg.seed, static_cast<std::uint64_t>(t)));
    acc += std::abs(er.estimate - exact);
  }
  return acc / static_cast<Real>(trials);
}

std::shared_ptr<const CutProtocol> make_protocol(const ProtocolSpec& spec) {
  switch (spec.id) {
    case ProtocolId::kPeng:
      return std::make_shared<PengCut>();
    case ProtocolId::kHarada:
      return std::make_shared<HaradaCut>();
    case ProtocolId::kTeleport:
      return std::make_shared<TeleportCut>();
    case ProtocolId::kNme:
      return std::make_shared<NmeCut>(spec.param);
    case ProtocolId::kDistill:
      return std::make_shared<DistillCut>(spec.param);
    case ProtocolId::kMixedNme:
      return std::make_shared<MixedNmeCut>(werner_resource(spec.param));
    case ProtocolId::kZzGate:
      return std::make_shared<ZzGateCut>(spec.param);
  }
  throw Error("make_protocol: unknown protocol id");
}

std::shared_ptr<const WireCutProtocol> make_wire_protocol(const ProtocolSpec& spec) {
  QCUT_CHECK(spec_kind(spec) == CutKind::kWire,
             "make_wire_protocol: '" + to_string(spec) + "' is not a wire-cut protocol");
  return std::static_pointer_cast<const WireCutProtocol>(make_protocol(spec));
}

}  // namespace qcut
