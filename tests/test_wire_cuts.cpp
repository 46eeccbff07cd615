// The wire-cut protocols: exact channel identities (Eq. 19 / Eq. 20 /
// Theorem 2), optimal overheads (Theorem 1 / Corollary 1), and estimator
// correctness for every protocol and entanglement level.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>

#include "qcut/core/cut_executor.hpp"
#include "qcut/cut/distill_cut.hpp"
#include "qcut/cut/harada_cut.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/cut/peng_cut.hpp"
#include "qcut/ent/measures.hpp"
#include "qcut/linalg/bell.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/qpd/estimator.hpp"
#include "test_helpers.hpp"

namespace qcut {
namespace {

using testing::expect_matrix_near;

// ---------------------------------------------------------------------------
// Channel-level identities: Σ c_i F_i = I exactly (Eq. 19).
// ---------------------------------------------------------------------------

void check_identity_reconstruction(const WireCutProtocol& proto) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const Matrix rho = random_density(2, rng);
    expect_matrix_near(reconstruct(proto, rho), rho, 1e-10, proto.name().c_str());
  }
  // Also on non-Hermitian inputs (linearity ⇒ identity on all operators).
  const Matrix g = ginibre(2, rng);
  expect_matrix_near(reconstruct(proto, g), g, 1e-9, "non-Hermitian input");
}

TEST(WireCutChannels, HaradaReconstructsIdentity) { check_identity_reconstruction(HaradaCut{}); }

TEST(WireCutChannels, PengReconstructsIdentity) { check_identity_reconstruction(PengCut{}); }

TEST(WireCutChannels, TeleportReconstructsIdentity) {
  check_identity_reconstruction(TeleportCut{});
}

class NmeIdentityTest : public ::testing::TestWithParam<Real> {};

TEST_P(NmeIdentityTest, ReconstructsIdentity) {
  check_identity_reconstruction(NmeCut{GetParam()});
}

TEST_P(NmeIdentityTest, DistillReconstructsIdentity) {
  check_identity_reconstruction(DistillCut{GetParam()});
}

INSTANTIATE_TEST_SUITE_P(KSweep, NmeIdentityTest,
                         ::testing::Values(0.0, 0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9,
                                           0.99, 1.0));

// ---------------------------------------------------------------------------
// Branch channels are physical: CPTN, and the positive-coefficient branches
// are trace-preserving measure-and-do-something operations.
// ---------------------------------------------------------------------------

void check_branches_physical(const WireCutProtocol& proto) {
  for (const auto& [c, f] : proto.channel_terms()) {
    EXPECT_TRUE(f.is_trace_nonincreasing(1e-8)) << proto.name();
    EXPECT_TRUE(f.is_trace_preserving(1e-8)) << proto.name();  // all ours are TP
    EXPECT_NE(c, 0.0);
  }
}

TEST(WireCutChannels, AllBranchesPhysical) {
  check_branches_physical(HaradaCut{});
  check_branches_physical(PengCut{});
  check_branches_physical(TeleportCut{});
  for (Real k : {0.0, 0.3, 0.7, 1.0}) {
    check_branches_physical(NmeCut{k});
    check_branches_physical(DistillCut{k});
  }
}

// ---------------------------------------------------------------------------
// Coefficients: Σ c_i = 1 (quasiprobability), κ matches theory.
// ---------------------------------------------------------------------------

TEST(WireCutCoefficients, SumToOneAndMatchTheory) {
  Rng rng(5);
  const CutInput input{haar_unitary(2, rng), 'Z'};

  const HaradaCut harada;
  EXPECT_NEAR(harada.build_qpd(input).coefficient_sum(), 1.0, 1e-12);
  EXPECT_NEAR(harada.build_qpd(input).kappa(), 3.0, 1e-12);

  const PengCut peng;
  EXPECT_NEAR(peng.build_qpd(input).coefficient_sum(), 1.0, 1e-12);
  EXPECT_NEAR(peng.build_qpd(input).kappa(), 4.0, 1e-12);

  for (Real k : {0.0, 0.2, 0.5, 0.8, 1.0}) {
    const NmeCut nme(k);
    const Qpd qpd = nme.build_qpd(input);
    EXPECT_NEAR(qpd.coefficient_sum(), 1.0, 1e-12) << "k=" << k;
    EXPECT_NEAR(qpd.kappa(), nme_cut_overhead(k), 1e-12) << "k=" << k;
    // Corollary 1 via Theorem 1: κ = 2/f − 1.
    EXPECT_NEAR(qpd.kappa(), 2.0 / f_phi_k(k) - 1.0, 1e-12) << "k=" << k;
  }
}

TEST(WireCutCoefficients, NmeEndpoints) {
  // k = 0: the entanglement-free optimum κ = 3; k = 1: teleportation κ = 1.
  EXPECT_NEAR(NmeCut{0.0}.kappa(), 3.0, 1e-12);
  EXPECT_NEAR(NmeCut{1.0}.kappa(), 1.0, 1e-12);
  EXPECT_EQ(NmeCut{1.0}.build_qpd(CutInput{}).size(), 2u);  // flip term vanishes
  EXPECT_EQ(NmeCut{0.5}.build_qpd(CutInput{}).size(), 3u);
}

TEST(WireCutCoefficients, KappaDecreasesWithEntanglement) {
  Real prev = 1e9;
  for (Real k = 0.0; k <= 1.0 + 1e-12; k += 0.05) {
    const Real kap = nme_cut_overhead(k);
    EXPECT_LE(kap, prev + 1e-12) << "κ must be non-increasing in k on [0,1]";
    prev = kap;
  }
}

// ---------------------------------------------------------------------------
// Estimator targets: the exact value of every protocol's QPD equals the
// uncut expectation, for all observables and random inputs. This is the
// executable statement of Theorem 2.
// ---------------------------------------------------------------------------

class ExactValueTest : public ::testing::TestWithParam<ProtocolSpec> {};

TEST_P(ExactValueTest, MatchesUncutExpectation) {
  const ProtocolSpec spec = GetParam();
  const auto proto = make_wire_protocol(spec);
  Rng rng(77);
  for (char obs : {'X', 'Y', 'Z'}) {
    for (int trial = 0; trial < 6; ++trial) {
      CutInput input;
      input.prep = haar_unitary(2, rng);
      input.observable = obs;
      const Real exact = uncut_expectation(input);
      const Real via_cut = exact_cut_expectation(*proto, input);
      EXPECT_NEAR(via_cut, exact, 1e-9)
          << to_string(spec) << " obs=" << obs << " trial=" << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ExactValueTest,
    ::testing::Values(ProtocolSpec{ProtocolId::kHarada, 0.0}, ProtocolSpec{ProtocolId::kPeng, 0.0},
                      ProtocolSpec{ProtocolId::kTeleport, 1.0}, ProtocolSpec{ProtocolId::kNme, 0.0},
                      ProtocolSpec{ProtocolId::kNme, 0.3}, ProtocolSpec{ProtocolId::kNme, 0.6},
                      ProtocolSpec{ProtocolId::kNme, 0.85}, ProtocolSpec{ProtocolId::kNme, 1.0},
                      ProtocolSpec{ProtocolId::kDistill, 0.0},
                      ProtocolSpec{ProtocolId::kDistill, 0.5},
                      ProtocolSpec{ProtocolId::kDistill, 1.0}),
    [](const ::testing::TestParamInfo<ProtocolSpec>& info) {
      std::string n = to_string(info.param) + "_k" +
                      std::to_string(static_cast<int>(info.param.param * 100));
      for (char& c : n) {
        if (!(std::isalnum(static_cast<unsigned char>(c)))) {
          c = '_';  // gtest param names must be alphanumeric
        }
      }
      return n;
    });

// ---------------------------------------------------------------------------
// NME cut at k=0 degenerates to the Harada cut (same exact branch values).
// ---------------------------------------------------------------------------

TEST(WireCutEquivalences, NmeAtKZeroEqualsHarada) {
  Rng rng(99);
  const CutInput input{haar_unitary(2, rng), 'Z'};
  const NmeCut nme(0.0);
  const HaradaCut harada;
  EXPECT_NEAR(exact_cut_expectation(nme, input), exact_cut_expectation(harada, input), 1e-10);
  EXPECT_NEAR(nme.kappa(), harada.kappa(), 1e-12);
  // Channel terms agree on random states.
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix rho = random_density(2, rng);
    expect_matrix_near(reconstruct(nme, rho), reconstruct(harada, rho), 1e-10);
  }
}

TEST(WireCutEquivalences, DistillMatchesNmeExactly) {
  // Same coefficients, same exact estimator targets, same κ.
  Rng rng(123);
  for (Real k : {0.0, 0.4, 0.8}) {
    const NmeCut nme(k);
    const DistillCut distill(k);
    EXPECT_NEAR(nme.kappa(), distill.kappa(), 1e-12);
    for (int trial = 0; trial < 4; ++trial) {
      const CutInput input{haar_unitary(2, rng), 'Z'};
      EXPECT_NEAR(exact_cut_expectation(nme, input), exact_cut_expectation(distill, input),
                  1e-9)
          << "k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Entangled-pair bookkeeping (Sec. III, last paragraph).
// ---------------------------------------------------------------------------

TEST(WireCutResources, PairConsumptionMatchesPaper) {
  for (Real k : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const NmeCut nme(k);
    const Qpd qpd = nme.build_qpd(CutInput{});
    // Probability-weighted pairs per sample = 2a/κ; the paper's weight is
    // 2a = 2(k²+1)/(k+1)² = 1/f.
    const Real two_a = 2.0 * nme.coeff_a();
    EXPECT_NEAR(two_a, 1.0 / f_phi_k(k), 1e-12);
    EXPECT_NEAR(qpd.expected_pairs_per_sample(), two_a / qpd.kappa(), 1e-12);
  }
}

TEST(WireCutResources, TeleportBranchesCarryOnePair) {
  const Qpd qpd = NmeCut{0.5}.build_qpd(CutInput{});
  int with_pair = 0;
  for (const auto& t : qpd.terms()) {
    with_pair += t.entangled_pairs;
  }
  EXPECT_EQ(with_pair, 2);  // exactly the two teleportation branches
}

// ---------------------------------------------------------------------------
// Input validation.
// ---------------------------------------------------------------------------

TEST(WireCutValidation, RejectsOutOfRangeK) {
  EXPECT_THROW(NmeCut{-0.1}, Error);
  EXPECT_THROW(NmeCut{1.5}, Error);
  EXPECT_THROW(DistillCut{2.0}, Error);
}

TEST(WireCutValidation, FromOverlapRoundTrips) {
  for (Real f : {0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    const NmeCut cut = NmeCut::from_overlap(f);
    EXPECT_NEAR(f_phi_k(cut.k()), f, 1e-10);
    EXPECT_NEAR(cut.kappa(), 2.0 / f - 1.0, 1e-10);
  }
}

}  // namespace
}  // namespace qcut
