#include "qcut/exec/shot_plan.hpp"

#include <cmath>

#include "qcut/common/rng.hpp"

namespace qcut {

namespace {

std::vector<Real> abs_coefficients(const Qpd& qpd) {
  std::vector<Real> w;
  w.reserve(qpd.size());
  for (const auto& t : qpd.terms()) {
    w.push_back(std::abs(t.coefficient));
  }
  return w;
}

}  // namespace

ShotPlan ShotPlan::from_allocation(PlanKind kind, const Qpd& qpd,
                                   std::vector<std::uint64_t> shots_per_term,
                                   std::uint64_t max_batch_shots) {
  QCUT_CHECK(!qpd.empty(), "ShotPlan: empty QPD");
  QCUT_CHECK(shots_per_term.size() == qpd.size(), "ShotPlan: allocation/term count mismatch");
  QCUT_CHECK(max_batch_shots >= 1, "ShotPlan: max_batch_shots must be >= 1");
  ShotPlan plan;
  plan.kind = kind;
  plan.shots_per_term = std::move(shots_per_term);
  std::uint64_t stream = 0;
  for (std::size_t i = 0; i < plan.shots_per_term.size(); ++i) {
    std::uint64_t remaining = plan.shots_per_term[i];
    plan.total_shots += remaining;
    while (remaining > 0) {
      const std::uint64_t n = remaining < max_batch_shots ? remaining : max_batch_shots;
      plan.batches.push_back(TermBatch{i, n, stream++});
      remaining -= n;
    }
  }
  return plan;
}

ShotPlan ShotPlan::allocated(const Qpd& qpd, std::uint64_t shots, AllocRule rule,
                             const std::vector<Real>* sigmas, std::uint64_t max_batch_shots) {
  QCUT_CHECK(!qpd.empty(), "ShotPlan::allocated: empty QPD");
  return from_allocation(PlanKind::kAllocated, qpd,
                         allocate_shots(abs_coefficients(qpd), shots, rule, sigmas),
                         max_batch_shots);
}

ShotPlan ShotPlan::sampled(const Qpd& qpd, std::uint64_t shots, std::uint64_t seed) {
  QCUT_CHECK(!qpd.empty(), "ShotPlan::sampled: empty QPD");
  std::vector<std::uint64_t> counts(qpd.size(), 0);
  if (shots > 0) {
    Rng rng(seed, kPlanStream);
    counts = multinomial(rng, shots, qpd.probabilities());
  }
  return from_allocation(PlanKind::kSampled, qpd, std::move(counts));
}

}  // namespace qcut
