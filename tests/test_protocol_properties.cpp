// Cross-protocol invariants: properties every wire-cut protocol must satisfy,
// checked uniformly over the whole registry, plus negative controls that
// prove the tests can fail.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "qcut/cut/distill_cut.hpp"
#include "qcut/cut/harada_cut.hpp"
#include "qcut/cut/mixed_cut.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/cut/peng_cut.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/qpd/estimator.hpp"
#include "qcut/sim/gates.hpp"
#include "qcut/sim/noise.hpp"
#include "qcut/sim/qasm.hpp"
#include "test_helpers.hpp"

namespace qcut {
namespace {

std::vector<std::shared_ptr<const WireCutProtocol>> all_protocols() {
  return {
      std::make_shared<PengCut>(),
      std::make_shared<HaradaCut>(),
      std::make_shared<TeleportCut>(),
      std::make_shared<NmeCut>(0.0),
      std::make_shared<NmeCut>(0.35),
      std::make_shared<NmeCut>(0.8),
      std::make_shared<NmeCut>(1.0),
      std::make_shared<DistillCut>(0.5),
      std::make_shared<MixedNmeCut>(noisy_phi_k(1.0, 0.25)),
      std::make_shared<MixedNmeCut>(noisy_phi_k(0.7, 0.15)),
  };
}

class ProtocolInvariantTest
    : public ::testing::TestWithParam<std::shared_ptr<const WireCutProtocol>> {};

TEST_P(ProtocolInvariantTest, GadgetCoefficientsSumToOneAndMatchKappa) {
  const auto& proto = GetParam();
  Real sum = 0.0, kappa = 0.0;
  for (const auto& g : proto->gadgets()) {
    sum += g.coefficient;
    kappa += std::abs(g.coefficient);
    EXPECT_TRUE(g.append != nullptr) << proto->name();
    EXPECT_GE(g.extra_qubits, 0);
    EXPECT_GE(g.cbits, 0);
  }
  EXPECT_NEAR(sum, 1.0, 1e-10) << proto->name();
  EXPECT_NEAR(kappa, proto->kappa(), 1e-10) << proto->name();
}

TEST_P(ProtocolInvariantTest, GadgetAndChannelTermCountsAgree) {
  const auto& proto = GetParam();
  EXPECT_EQ(proto->gadgets().size(), proto->channel_terms().size()) << proto->name();
}

TEST_P(ProtocolInvariantTest, ChannelCoefficientsMatchGadgets) {
  const auto& proto = GetParam();
  const auto gs = proto->gadgets();
  const auto cs = proto->channel_terms();
  ASSERT_EQ(gs.size(), cs.size());
  for (std::size_t i = 0; i < gs.size(); ++i) {
    EXPECT_NEAR(gs[i].coefficient, cs[i].first, 1e-10) << proto->name() << " term " << i;
  }
}

TEST_P(ProtocolInvariantTest, IdentityReconstructionOnRandomStates) {
  const auto& proto = GetParam();
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    const Matrix rho = random_density(2, rng);
    testing::expect_matrix_near(reconstruct(*proto, rho), rho, 1e-8, proto->name().c_str());
  }
}

TEST_P(ProtocolInvariantTest, ExactValueInvariantUnderGlobalPhase) {
  const auto& proto = GetParam();
  Rng rng(8);
  const Matrix w = haar_unitary(2, rng);
  const Matrix w_phased = std::exp(Cplx{0.0, 0.77}) * w;
  const CutInput a{w, 'Z'};
  const CutInput b{w_phased, 'Z'};
  EXPECT_NEAR(exact_cut_expectation(*proto, a), exact_cut_expectation(*proto, b), 1e-9)
      << proto->name();
}

TEST_P(ProtocolInvariantTest, EstimateCbitsAreValid) {
  const auto& proto = GetParam();
  Rng rng(9);
  const Qpd qpd = proto->build_qpd(CutInput{haar_unitary(2, rng), 'X'});
  for (const auto& term : qpd.terms()) {
    ASSERT_FALSE(term.estimate_cbits.empty());
    for (int cb : term.estimate_cbits) {
      EXPECT_GE(cb, 0);
      EXPECT_LT(cb, term.circuit.n_cbits());
    }
  }
}

TEST_P(ProtocolInvariantTest, SampledAndAllocatedEstimatorsAgreeInExpectation) {
  const auto& proto = GetParam();
  Rng rng(10);
  const CutInput input{haar_unitary(2, rng), 'Z'};
  const Qpd qpd = proto->build_qpd(input);
  const BatchedBranchBackend backend(qpd);
  const ShotPlan allocated = ShotPlan::allocated(qpd, 800, AllocRule::kProportional);
  const Real target = uncut_expectation(input);

  Real acc_s = 0.0, acc_a = 0.0;
  const int trials = 150;
  for (int t = 0; t < trials; ++t) {
    Rng trng(11, static_cast<std::uint64_t>(t));
    const std::uint64_t sampled_seed = trng(), allocated_seed = trng();
    acc_s += run_plan(qpd, ShotPlan::sampled(qpd, 800, sampled_seed), backend, sampled_seed)
                 .estimate;
    acc_a += run_plan(qpd, allocated, backend, allocated_seed).estimate;
  }
  const Real tol = 6.0 * qpd.kappa() / std::sqrt(800.0 * trials) + 1e-6;
  EXPECT_NEAR(acc_s / trials, target, tol) << proto->name();
  EXPECT_NEAR(acc_a / trials, target, tol) << proto->name();
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ProtocolInvariantTest, ::testing::ValuesIn(all_protocols()),
    [](const ::testing::TestParamInfo<std::shared_ptr<const WireCutProtocol>>& info) {
      std::string n = info.param->name();
      for (char& ch : n) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) {
          ch = '_';
        }
      }
      return n + "_" + std::to_string(info.index);
    });

// ---------------------------------------------------------------------------
// Negative controls: corrupting a decomposition must break the identity —
// proving the positive tests above are discriminating.
// ---------------------------------------------------------------------------

TEST(ProtocolNegativeControls, WrongSignBreaksReconstruction) {
  const HaradaCut proto;
  Rng rng(12);
  const Matrix rho = random_density(2, rng);
  Matrix acc(2, 2);
  for (const auto& [c, f] : proto.channel_terms()) {
    acc += Cplx{std::abs(c), 0.0} * f.apply(rho);  // corrupt: all signs positive
  }
  EXPECT_GT((acc - rho).norm(), 0.1);
}

TEST(ProtocolNegativeControls, WrongKBreaksCoefficients) {
  // Theorem-2 coefficients for k = 0.3 do not reconstruct with the channel
  // for k = 0.6.
  const NmeCut right(0.3);
  const NmeCut wrong(0.6);
  Rng rng(13);
  const Matrix rho = random_density(2, rng);
  Matrix acc(2, 2);
  const auto coeffs = right.channel_terms();
  const auto chans = wrong.channel_terms();
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    acc += Cplx{coeffs[i].first, 0.0} * chans[i].second.apply(rho);
  }
  EXPECT_GT((acc - rho).norm(), 0.01);
}

TEST(ProtocolNegativeControls, DroppingTheFlipTermBiasesTheEstimate) {
  const NmeCut proto(0.4);
  Rng rng(14);
  const CutInput input{haar_unitary(2, rng), 'Z'};
  Qpd truncated;
  const Qpd full = proto.build_qpd(input);
  for (const auto& term : full.terms()) {
    if (term.label != "measure-flip") {
      QpdTerm copy = term;
      truncated.add(std::move(copy));
    }
  }
  EXPECT_GT(std::abs(exact_value(truncated) - uncut_expectation(input)), 1e-3);
}

// ---------------------------------------------------------------------------
// QASM export coverage across the registry.
// ---------------------------------------------------------------------------

TEST(ProtocolQasm, FragmentsExportWherePossible) {
  Rng rng(15);
  const CutInput input{haar_unitary(2, rng), 'Z'};
  for (const auto& proto : all_protocols()) {
    const bool has_big_init = proto->name().rfind("mixed", 0) == 0;  // 4-qubit purification
    const Qpd qpd = proto->build_qpd(input);
    for (const auto& term : qpd.terms()) {
      if (has_big_init && term.entangled_pairs > 0) {
        EXPECT_THROW((void)to_qasm(term.circuit), Error) << proto->name();
      } else {
        EXPECT_NO_THROW((void)to_qasm(term.circuit)) << proto->name() << " " << term.label;
      }
    }
  }
}

}  // namespace
}  // namespace qcut
