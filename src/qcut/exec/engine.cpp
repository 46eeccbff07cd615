#include "qcut/exec/engine.hpp"

#include "qcut/common/cancel.hpp"
#include "qcut/common/error.hpp"
#include "qcut/common/fault.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/obs/trace.hpp"

namespace qcut {

EstimationResult combine_counts(const Qpd& qpd, const ShotPlan& plan,
                                const std::vector<std::uint64_t>& ones_per_term) {
  QCUT_CHECK(ones_per_term.size() == qpd.size(), "combine_counts: count/term mismatch");
  obs::TraceSpan span("engine.combine");
  obs::count(obs::Counter::kShotsSampled, plan.total_shots);
  EstimationResult res;
  res.kappa = qpd.kappa();
  res.shots_per_term = plan.shots_per_term;
  res.shots_used = plan.total_shots;

  Real acc = 0.0;
  for (std::size_t i = 0; i < qpd.size(); ++i) {
    const std::uint64_t n = plan.shots_per_term[i];
    if (n == 0) {
      continue;  // term contributes nothing at this budget (matches practice)
    }
    const std::uint64_t ones = ones_per_term[i];
    const QpdTerm& term = qpd.terms()[i];
    if (plan.kind == PlanKind::kAllocated) {
      // outcome mean: (+1)(n-ones) + (-1)(ones) over n
      const Real mean = 1.0 - 2.0 * static_cast<Real>(ones) / static_cast<Real>(n);
      acc += term.coefficient * mean;
    } else {
      const Real sign = term.coefficient >= 0.0 ? 1.0 : -1.0;
      acc += res.kappa * sign *
             (static_cast<Real>(n) - 2.0 * static_cast<Real>(ones));
    }
    res.entangled_pairs_used += n * static_cast<std::uint64_t>(term.entangled_pairs);
  }
  if (plan.kind == PlanKind::kSampled && plan.total_shots > 0) {
    acc /= static_cast<Real>(plan.total_shots);
  }
  res.estimate = acc;
  return res;
}

EstimationResult run_plan(const Qpd& qpd, const ShotPlan& plan, const ExecutionBackend& backend,
                          std::uint64_t seed) {
  QCUT_CHECK(!qpd.empty(), "run_plan: empty QPD");
  QCUT_CHECK(plan.shots_per_term.size() == qpd.size(),
             "run_plan: plan built for a different QPD");
  obs::TraceSpan run_span("engine.run", static_cast<std::uint64_t>(plan.batches.size()));
  obs::count(obs::Counter::kBatchesRun, plan.batches.size());

  // The one fan-out (exact probabilities, once per backend), then every
  // draw inline in plan order; counts are integers, so the per-term sums
  // are the same in any order.
  backend.prepare();
  std::vector<std::uint64_t> ones_per_term(qpd.size(), 0);
  for (const TermBatch& batch : plan.batches) {
    cancel_poll();  // batch starts are the engine's cancellation quantum
    fault::maybe_inject(fault::Site::kExecBatch);
    obs::TraceSpan span("engine.batch", static_cast<std::uint64_t>(batch.term));
    Rng rng(seed, batch.stream);
    ones_per_term[batch.term] += backend.run_batch(batch, rng);
  }
  return combine_counts(qpd, plan, ones_per_term);
}

}  // namespace qcut
