// Monte-Carlo QPD estimates through run_plan: unbiasedness, variance scaling
// with κ (the heart of Eq. 12's cost analysis), and agreement between the
// per-shot (SerialShotBackend) and exact-probability (BatchedBranchBackend)
// backends.
#include <gtest/gtest.h>

#include <cmath>

#include "qcut/common/stats.hpp"
#include "qcut/cut/harada_cut.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/qpd/estimator.hpp"

namespace qcut {
namespace {

CutInput fixed_input() {
  CutInput input;
  // W = Ry(1.1): ⟨Z⟩ = cos(1.1), deterministic for reproducible statistics.
  const Real theta = 1.1;
  const Real c = std::cos(theta / 2.0), s = std::sin(theta / 2.0);
  input.prep = Matrix{{Cplx{c, 0}, Cplx{-s, 0}}, {Cplx{s, 0}, Cplx{c, 0}}};
  input.observable = 'Z';
  return input;
}

TEST(Estimator, ExactValueEqualsTarget) {
  const CutInput input = fixed_input();
  const Real target = std::cos(1.1);
  EXPECT_NEAR(exact_value(HaradaCut{}.build_qpd(input)), target, 1e-10);
  EXPECT_NEAR(exact_value(NmeCut{0.5}.build_qpd(input)), target, 1e-10);
}

TEST(Estimator, SampledIsUnbiased) {
  const CutInput input = fixed_input();
  const Qpd qpd = HaradaCut{}.build_qpd(input);
  const Real target = std::cos(1.1);
  const SerialShotBackend backend(qpd);
  Rng rng(1);
  RunningStats stats;
  for (int t = 0; t < 400; ++t) {
    const std::uint64_t seed = rng();
    stats.add(run_plan(qpd, ShotPlan::sampled(qpd, 200, seed), backend, seed).estimate);
  }
  EXPECT_NEAR(stats.mean(), target, 5.0 * stats.sem() + 1e-6);
}

TEST(Estimator, AllocatedIsUnbiased) {
  const CutInput input = fixed_input();
  const Qpd qpd = NmeCut{0.4}.build_qpd(input);
  const Real target = std::cos(1.1);
  const ShotPlan plan = ShotPlan::allocated(qpd, 150, AllocRule::kProportional);
  const SerialShotBackend backend(qpd);
  Rng rng(2);
  RunningStats stats;
  for (int t = 0; t < 300; ++t) {
    stats.add(run_plan(qpd, plan, backend, rng()).estimate);
  }
  EXPECT_NEAR(stats.mean(), target, 5.0 * stats.sem() + 1e-6);
}

TEST(Estimator, FastPathsMatchSlowPathsInDistribution) {
  const CutInput input = fixed_input();
  const Qpd qpd = HaradaCut{}.build_qpd(input);
  const std::uint64_t shots = 300;
  const int trials = 400;
  const ShotPlan plan = ShotPlan::allocated(qpd, shots, AllocRule::kProportional);
  const SerialShotBackend serial(qpd);
  const BatchedBranchBackend batched(qpd);

  RunningStats slow, fast;
  Rng rng_slow(3), rng_fast(4);
  for (int t = 0; t < trials; ++t) {
    slow.add(run_plan(qpd, plan, serial, rng_slow()).estimate);
    fast.add(run_plan(qpd, plan, batched, rng_fast()).estimate);
  }
  // Same mean and same variance (both estimate the same statistic).
  EXPECT_NEAR(slow.mean(), fast.mean(), 4.0 * (slow.sem() + fast.sem()) + 1e-6);
  EXPECT_NEAR(slow.variance(), fast.variance(), 0.35 * slow.variance() + 1e-6);
}

TEST(Estimator, SampledFastMatchesSampled) {
  const CutInput input = fixed_input();
  const Qpd qpd = NmeCut{0.6}.build_qpd(input);
  const SerialShotBackend serial(qpd);
  const BatchedBranchBackend batched(qpd);
  RunningStats slow, fast;
  Rng rng_slow(5), rng_fast(6);
  for (int t = 0; t < 300; ++t) {
    const std::uint64_t slow_seed = rng_slow(), fast_seed = rng_fast();
    slow.add(run_plan(qpd, ShotPlan::sampled(qpd, 200, slow_seed), serial, slow_seed).estimate);
    fast.add(run_plan(qpd, ShotPlan::sampled(qpd, 200, fast_seed), batched, fast_seed).estimate);
  }
  EXPECT_NEAR(slow.mean(), fast.mean(), 4.0 * (slow.sem() + fast.sem()) + 1e-6);
  EXPECT_NEAR(slow.variance(), fast.variance(), 0.35 * slow.variance() + 1e-6);
}

TEST(Estimator, VarianceScalesWithKappaSquared) {
  // Empirical variance of the per-shot-sampled estimator ≈ (κ² − v²)/N.
  const CutInput input = fixed_input();
  for (Real k : {0.0, 0.5, 1.0}) {
    const NmeCut proto(k);
    const Qpd qpd = proto.build_qpd(input);
    const BatchedBranchBackend backend(qpd);
    const Real predicted_var = sampled_estimator_variance(qpd);
    const std::uint64_t shots = 400;
    RunningStats stats;
    Rng rng(7);
    for (int t = 0; t < 600; ++t) {
      const std::uint64_t seed = rng();
      stats.add(run_plan(qpd, ShotPlan::sampled(qpd, shots, seed), backend, seed).estimate);
    }
    const Real expected = predicted_var / static_cast<Real>(shots);
    EXPECT_NEAR(stats.variance(), expected, 0.25 * expected + 2e-5) << "k=" << k;
  }
}

TEST(Estimator, ErrorDecreasesAsKappaDecreases) {
  // Fixed shots: higher entanglement (smaller κ) must give lower mean error —
  // the headline claim of the paper, in miniature.
  const CutInput input = fixed_input();
  const Real target = std::cos(1.1);
  const std::uint64_t shots = 500;
  std::vector<Real> mean_errors;
  for (Real k : {0.0, 0.5, 1.0}) {
    const Qpd qpd = NmeCut{k}.build_qpd(input);
    const ShotPlan plan = ShotPlan::allocated(qpd, shots, AllocRule::kProportional);
    const BatchedBranchBackend backend(qpd);
    Rng rng(8);
    RunningStats err;
    for (int t = 0; t < 500; ++t) {
      err.add(std::abs(run_plan(qpd, plan, backend, rng()).estimate - target));
    }
    mean_errors.push_back(err.mean());
  }
  EXPECT_GT(mean_errors[0], mean_errors[1]);
  EXPECT_GT(mean_errors[1], mean_errors[2]);
}

TEST(Estimator, ZeroShotsGiveZeroEstimate) {
  const Qpd qpd = HaradaCut{}.build_qpd(fixed_input());
  const ShotPlan plan = ShotPlan::sampled(qpd, 0, 9);
  EXPECT_EQ(run_plan(qpd, plan, SerialShotBackend(qpd), 9).estimate, 0.0);
  EXPECT_EQ(run_plan(qpd, plan, BatchedBranchBackend(qpd), 9).estimate, 0.0);
}

TEST(Estimator, PairAccountingInResults) {
  const Qpd qpd = NmeCut{0.5}.build_qpd(fixed_input());
  const auto res = run_plan(qpd, ShotPlan::allocated(qpd, 1000, AllocRule::kProportional),
                            BatchedBranchBackend(qpd), 10);
  // Teleport branches get shots ∝ a each; both consume one pair per shot.
  std::uint64_t expected = res.shots_per_term[0] + res.shots_per_term[1];
  EXPECT_EQ(res.entangled_pairs_used, expected);
}

TEST(Estimator, ShotsPerTermFollowAllocation) {
  const Qpd qpd = NmeCut{0.0}.build_qpd(fixed_input());  // |c| = {1,1,1}
  const auto res = run_plan(qpd, ShotPlan::allocated(qpd, 900, AllocRule::kProportional),
                            BatchedBranchBackend(qpd), 11);
  EXPECT_EQ(res.shots_per_term[0], 300u);
  EXPECT_EQ(res.shots_per_term[1], 300u);
  EXPECT_EQ(res.shots_per_term[2], 300u);
}

TEST(Estimator, MismatchedProbsThrow) {
  // A pre-seeded backend must carry one probability per term.
  const Qpd qpd = HaradaCut{}.build_qpd(fixed_input());
  EXPECT_THROW(BatchedBranchBackend(qpd, {0.5}), Error);
  EXPECT_THROW(BatchedBranchBackend(qpd, {0.5, 0.5}), Error);
}

}  // namespace
}  // namespace qcut
