// Monte-Carlo estimation of Tr[O E(ρ)] from a quasiprobability decomposition
// (Eq. 12 of the paper): the result type and the exact quantities the
// estimates converge to.
//
// Shots are drawn one way only: build a ShotPlan (exec/shot_plan.hpp:
// allocated for the paper's experiment, sampled for textbook Eq. 12), pick a
// backend (exec/backend.hpp: BatchedBranchBackend, pre-seeded with
// exact_term_prob_one's probabilities to reuse them, or SerialShotBackend for
// per-shot simulation) and call run_plan(qpd, plan, backend, seed)
// (exec/engine.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "qcut/qpd/qpd.hpp"

namespace qcut {

struct EstimationResult {
  Real estimate = 0.0;            ///< estimate of Tr[O E(ρ)]
  std::uint64_t shots_used = 0;   ///< total circuit executions
  Real kappa = 0.0;               ///< sampling overhead of the QPD
  std::uint64_t entangled_pairs_used = 0;  ///< NME states consumed
  std::vector<std::uint64_t> shots_per_term;
};

/// Exact single-shot statistics of each term: P(outcome = -1), i.e.
/// P(estimate_cbit = 1), computed by the exact backend's evaluator
/// (FragmentVariants::evaluate_all), each fragment variant once: on the
/// calling thread unless the variants' work pays for a fan-out.
std::vector<Real> exact_term_prob_one(const Qpd& qpd);

/// The exact value the estimators converge to: Σ c_i E[outcome_i].
Real exact_value(const Qpd& qpd);

/// Exact single-shot variance of the per-shot-sampled estimator (Eq. 12):
/// Var = κ² Σ p_i E[o_i²] − (Σ c_i E[o_i])². With ±1 outcomes E[o²]=1, so
/// Var = κ² − value². Provided for the κ-scaling bench and tests.
Real sampled_estimator_variance(const Qpd& qpd);

}  // namespace qcut
