// Monte-Carlo estimation of Tr[O E(ρ)] from a quasiprobability decomposition
// (Eq. 12 of the paper).
//
// Three estimators, all unbiased (up to empty-term truncation at tiny shot
// counts, identical to practice):
//  * estimate_sampled      — per-shot term sampling i ~ p_i (textbook Eq. 12);
//  * estimate_allocated    — the paper's experiment: a fixed budget is split
//    across terms proportionally to |c_i|, each subcircuit is executed
//    shot-by-shot, and the term means are recombined as Σ c_i ⟨outcome⟩_i;
//  * estimate_allocated_fast — statistically identical to estimate_allocated
//    but samples each term's outcome count from Binomial(n_i, p_i^(1)) with
//    the exact single-shot probability computed once per term. This is what
//    lets the benches run the paper's 1000-state × 6-entanglement sweep in
//    seconds; a gtest asserts its distribution matches the slow path.
//
// All entry points are thin wrappers over the qcut::exec execution engine
// (ShotPlan + ExecutionBackend + run_plan_with_rng) and keep the single
// caller-driven rng stream; run_plan (exec/engine.hpp) runs term-parallel
// and pool-size-invariant.
#pragma once

#include <cstdint>
#include <vector>

#include "qcut/common/rng.hpp"
#include "qcut/qpd/qpd.hpp"
#include "qcut/qpd/shot_alloc.hpp"

namespace qcut {

struct EstimationResult {
  Real estimate = 0.0;            ///< estimate of Tr[O E(ρ)]
  std::uint64_t shots_used = 0;   ///< total circuit executions
  Real kappa = 0.0;               ///< sampling overhead of the QPD
  std::uint64_t entangled_pairs_used = 0;  ///< NME states consumed
  std::vector<std::uint64_t> shots_per_term;
};

/// Per-shot importance sampling over terms (Eq. 12).
EstimationResult estimate_sampled(const Qpd& qpd, std::uint64_t shots, Rng& rng);

/// The paper's allocation scheme: split the budget across subcircuits
/// proportionally to |c_i| (or the requested rule), estimate each term's
/// outcome mean, recombine Σ c_i ⟨o⟩_i.
EstimationResult estimate_allocated(const Qpd& qpd, std::uint64_t shots, Rng& rng,
                                    AllocRule rule = AllocRule::kProportional);

/// Exact single-shot statistics of each term: P(outcome = -1), i.e.
/// P(estimate_cbit = 1), computed by the exact backend's evaluator
/// (FragmentVariants::evaluate_all), each fragment variant once: on the
/// calling thread unless the variants' work pays for a fan-out.
std::vector<Real> exact_term_prob_one(const Qpd& qpd);

/// Fast path: like estimate_allocated but draws each term's "#ones" from a
/// binomial with the exact per-shot probability `prob_one[i]` (precompute via
/// exact_term_prob_one and reuse across repetitions/shot counts).
EstimationResult estimate_allocated_fast(const Qpd& qpd, const std::vector<Real>& prob_one,
                                         std::uint64_t shots, Rng& rng,
                                         AllocRule rule = AllocRule::kProportional);

/// Per-shot-sampling fast path using the same precomputed probabilities.
EstimationResult estimate_sampled_fast(const Qpd& qpd, const std::vector<Real>& prob_one,
                                       std::uint64_t shots, Rng& rng);

/// The exact value the estimators converge to: Σ c_i E[outcome_i].
Real exact_value(const Qpd& qpd);

/// Exact single-shot variance of the per-shot-sampled estimator (Eq. 12):
/// Var = κ² Σ p_i E[o_i²] − (Σ c_i E[o_i])². With ±1 outcomes E[o²]=1, so
/// Var = κ² − value². Provided for the κ-scaling bench and tests.
Real sampled_estimator_variance(const Qpd& qpd);

}  // namespace qcut
