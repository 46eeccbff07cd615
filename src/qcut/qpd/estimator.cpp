// The estimator entry points are thin wrappers over the qcut::exec layer:
// plans come from ShotPlan, shot execution from the ExecutionBackend
// implementations, and recombination from combine_counts. Single-batch-per-
// term plans driven by the caller's rng (run_plan_with_rng) reproduce the
// exact random streams of the original hand-rolled loops on the fast paths.
#include "qcut/qpd/estimator.hpp"

#include <cmath>

#include "qcut/cut/fragment.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/obs/trace.hpp"

namespace qcut {

EstimationResult estimate_sampled(const Qpd& qpd, std::uint64_t shots, Rng& rng) {
  obs::TraceSpan span("estimator.aggregate", static_cast<std::uint64_t>(qpd.size()));
  QCUT_CHECK(!qpd.empty(), "estimate_sampled: empty QPD");
  const ShotPlan plan = ShotPlan::sampled(qpd, shots, rng, ShotPlan::kNoSplit);
  const SerialShotBackend backend(qpd);
  return run_plan_with_rng(qpd, plan, backend, rng);
}

EstimationResult estimate_allocated(const Qpd& qpd, std::uint64_t shots, Rng& rng,
                                    AllocRule rule) {
  obs::TraceSpan span("estimator.aggregate", static_cast<std::uint64_t>(qpd.size()));
  QCUT_CHECK(!qpd.empty(), "estimate_allocated: empty QPD");
  const ShotPlan plan =
      ShotPlan::allocated(qpd, shots, rule, /*sigmas=*/nullptr, ShotPlan::kNoSplit);
  const SerialShotBackend backend(qpd);
  return run_plan_with_rng(qpd, plan, backend, rng);
}

std::vector<Real> exact_term_prob_one(const Qpd& qpd) {
  obs::TraceSpan span("estimator.exact_probs", static_cast<std::uint64_t>(qpd.size()));
  const FragmentVariants variants(qpd);
  std::vector<FragmentTable> tables(variants.size());
  for (const std::size_t t : variants.introducing_terms()) {
    variants.evaluate_new(t, tables);
  }
  return variants.recombine_all(tables);
}

EstimationResult estimate_allocated_fast(const Qpd& qpd, const std::vector<Real>& prob_one,
                                         std::uint64_t shots, Rng& rng, AllocRule rule) {
  obs::TraceSpan span("estimator.aggregate", static_cast<std::uint64_t>(qpd.size()));
  QCUT_CHECK(!qpd.empty(), "estimate_allocated_fast: empty QPD");
  QCUT_CHECK(prob_one.size() == qpd.size(), "estimate_allocated_fast: prob/term mismatch");
  const ShotPlan plan =
      ShotPlan::allocated(qpd, shots, rule, /*sigmas=*/nullptr, ShotPlan::kNoSplit);
  const BatchedBranchBackend backend(qpd, prob_one);
  return run_plan_with_rng(qpd, plan, backend, rng);
}

EstimationResult estimate_sampled_fast(const Qpd& qpd, const std::vector<Real>& prob_one,
                                       std::uint64_t shots, Rng& rng) {
  obs::TraceSpan span("estimator.aggregate", static_cast<std::uint64_t>(qpd.size()));
  QCUT_CHECK(!qpd.empty(), "estimate_sampled_fast: empty QPD");
  QCUT_CHECK(prob_one.size() == qpd.size(), "estimate_sampled_fast: prob/term mismatch");
  const ShotPlan plan = ShotPlan::sampled(qpd, shots, rng, ShotPlan::kNoSplit);
  const BatchedBranchBackend backend(qpd, prob_one);
  return run_plan_with_rng(qpd, plan, backend, rng);
}

Real exact_value(const Qpd& qpd) {
  Real acc = 0.0;
  const auto probs = exact_term_prob_one(qpd);
  for (std::size_t i = 0; i < qpd.size(); ++i) {
    const Real mean = 1.0 - 2.0 * probs[i];
    acc += qpd.terms()[i].coefficient * mean;
  }
  return acc;
}

Real sampled_estimator_variance(const Qpd& qpd) {
  const Real v = exact_value(qpd);
  const Real k = qpd.kappa();
  return k * k - v * v;
}

}  // namespace qcut
