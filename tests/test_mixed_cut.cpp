// Wire cutting with mixed NME resources (the paper's future-work extension).
#include <gtest/gtest.h>

#include "qcut/core/cut_executor.hpp"
#include "qcut/cut/mixed_cut.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/ent/measures.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/linalg/bell.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/sim/noise.hpp"
#include "test_helpers.hpp"

namespace qcut {
namespace {

using testing::expect_matrix_near;

class MixedCutWernerTest : public ::testing::TestWithParam<Real> {};

TEST_P(MixedCutWernerTest, ChannelIdentityHoldsExactly) {
  // Werner resource (1−p)|Φ⟩⟨Φ| + p I/4: q_I = 1 − 3p/4 > 1/4 for p < 1.
  const Real p = GetParam();
  const MixedNmeCut cut(noisy_phi_k(1.0, p));
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix rho = random_density(2, rng);
    expect_matrix_near(reconstruct(cut, rho), rho, 1e-9, "mixed-cut identity");
  }
}

TEST_P(MixedCutWernerTest, ExactValueMatchesUncut) {
  const Real p = GetParam();
  const MixedNmeCut cut(noisy_phi_k(1.0, p));
  Rng rng(2);
  for (char obs : {'X', 'Y', 'Z'}) {
    CutInput input{haar_unitary(2, rng), obs};
    EXPECT_NEAR(exact_cut_expectation(cut, input), uncut_expectation(input), 1e-8)
        << "p=" << p << " obs=" << obs;
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseSweep, MixedCutWernerTest,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.8),
                         [](const ::testing::TestParamInfo<Real>& info) {
                           return "p" + std::to_string(static_cast<int>(info.param * 100));
                         });

TEST(MixedCut, WorksWithNoisyPhiK) {
  // Depolarized |Φk⟩ resources at several k.
  Rng rng(3);
  for (Real k : {0.4, 0.7, 1.0}) {
    for (Real p : {0.1, 0.3}) {
      const Matrix res = noisy_phi_k(k, p);
      const Real qi = bell_overlaps(res)[0];
      if (qi <= 0.26) {
        continue;
      }
      const MixedNmeCut cut(res);
      const Matrix rho = random_density(2, rng);
      expect_matrix_near(reconstruct(cut, rho), rho, 1e-9, "noisy phi_k");
      CutInput input{haar_unitary(2, rng), 'Z'};
      EXPECT_NEAR(exact_cut_expectation(cut, input), uncut_expectation(input), 1e-8);
    }
  }
}

TEST(MixedCut, WorksWithGenericRandomResource) {
  // Any random two-qubit density with enough Bell-identity weight: mix a
  // random state toward |Φ⟩ to guarantee q_I > 1/4.
  Rng rng(4);
  for (int trial = 0; trial < 5; ++trial) {
    Matrix res = random_density(4, rng);
    res = 0.4 * res + 0.6 * density(bell_phi());
    const MixedNmeCut cut(res);
    const Matrix rho = random_density(2, rng);
    expect_matrix_near(reconstruct(cut, rho), rho, 1e-8, "generic resource");
    CutInput input{haar_unitary(2, rng), 'Y'};
    EXPECT_NEAR(exact_cut_expectation(cut, input), uncut_expectation(input), 1e-7);
  }
}

TEST(MixedCut, KappaFormulaAndLimits) {
  // Perfect resource: κ = 1 (teleportation).
  EXPECT_NEAR(MixedNmeCut(phi_k_density(1.0)).kappa(), 1.0, 1e-10);
  // Werner: q_I = 1 − 3p/4 → κ = (3+3p)/(3−3p) = (1+p)/(1−p).
  for (Real p : {0.1, 0.3, 0.6}) {
    EXPECT_NEAR(MixedNmeCut(noisy_phi_k(1.0, p)).kappa(), (1.0 + p) / (1.0 - p), 1e-10);
  }
  EXPECT_THROW(mixed_cut_overhead(0.2), Error);
}

TEST(MixedCut, NotOptimalForPureStates) {
  // For pure |Φk⟩ the Theorem-2 cut is strictly cheaper (except at k = 1):
  // the mixed-resource construction trades optimality for noise robustness.
  for (Real k : {0.0, 0.3, 0.7}) {
    const NmeCut direct(k);
    const MixedNmeCut generic(phi_k_density(k));
    EXPECT_GT(generic.kappa(), direct.kappa()) << "k=" << k;
  }
  EXPECT_NEAR(MixedNmeCut(phi_k_density(1.0)).kappa(), NmeCut(1.0).kappa(), 1e-10);
}

TEST(MixedCut, KappaUpperBoundsTheorem1) {
  // Theorem 1: the optimal overhead is 2/f − 1 with f ≥ FEF; our κ must not
  // beat the bound computed from the fully entangled fraction.
  for (Real p : {0.0, 0.2, 0.5}) {
    const Matrix res = noisy_phi_k(1.0, p);
    const Real f = fully_entangled_fraction(res);
    const MixedNmeCut cut(res);
    EXPECT_GE(cut.kappa() + 1e-9, 2.0 / f - 1.0) << "p=" << p;
  }
}

TEST(MixedCut, EstimatorConvergesUnderNoise) {
  const MixedNmeCut cut(noisy_phi_k(1.0, 0.2));
  Rng rng(5);
  CutInput input{haar_unitary(2, rng), 'Z'};
  const Qpd qpd = cut.build_qpd(input);
  const BatchedBranchBackend backend(qpd);
  const ShotPlan plan = ShotPlan::allocated(qpd, 2000, AllocRule::kProportional);
  const Real target = uncut_expectation(input);
  Real acc = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    acc += run_plan(qpd, plan, backend, Rng(17, static_cast<std::uint64_t>(t))()).estimate;
  }
  EXPECT_NEAR(acc / trials, target, 0.03);
}

TEST(MixedCut, RejectsInvalidResources) {
  EXPECT_THROW(MixedNmeCut(Matrix::identity(2)), Error);               // wrong dim
  EXPECT_THROW(MixedNmeCut(0.25 * Matrix::identity(4)), Error);       // q_I = 1/4
  EXPECT_THROW(MixedNmeCut(2.0 * density(bell_phi())), Error);        // trace 2
  EXPECT_THROW(MixedNmeCut(noisy_phi_k(1.0, 1.0)), Error);            // I/4: q_I = 1/4
}

TEST(MixedCut, QpdStructure) {
  const MixedNmeCut cut(noisy_phi_k(1.0, 0.3));
  const Qpd qpd = cut.build_qpd(CutInput{});
  EXPECT_EQ(qpd.size(), 5u);  // 3 teleports + flip + deph
  EXPECT_NEAR(qpd.coefficient_sum(), 1.0, 1e-10);
  EXPECT_NEAR(qpd.kappa(), cut.kappa(), 1e-10);
  // Perfect resource degenerates to 3 teleport branches.
  const MixedNmeCut clean(phi_k_density(1.0));
  EXPECT_EQ(clean.build_qpd(CutInput{}).size(), 3u);
}

}  // namespace
}  // namespace qcut
