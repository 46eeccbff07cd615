// Gate cutting (Mitarai-Fujii virtual ZZ gate) — Sec. V's alternative
// technique, implemented as a comparison substrate.
#include <gtest/gtest.h>

#include <cmath>

#include "qcut/common/stats.hpp"
#include "qcut/cut/circuit_cutter.hpp"
#include "qcut/cut/gate_cut.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/linalg/kron.hpp"
#include "qcut/linalg/pauli.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/qpd/estimator.hpp"
#include "qcut/sim/gates.hpp"
#include "test_helpers.hpp"

namespace qcut {
namespace {

using testing::expect_matrix_near;

Matrix zz_unitary(Real theta) {
  return Cplx{std::cos(theta), 0.0} * Matrix::identity(4) +
         Cplx{0.0, std::sin(theta)} * kron(pauli_z(), pauli_z());
}

class ZzThetaTest : public ::testing::TestWithParam<Real> {};

TEST_P(ZzThetaTest, ReconstructsTheGateChannelExactly) {
  const Real theta = GetParam();
  const Matrix u = zz_unitary(theta);
  Rng rng(1);
  for (int trial = 0; trial < 8; ++trial) {
    const Matrix rho = random_density(4, rng);
    expect_matrix_near(zz_gate_cut_reconstruct(theta, rho), u * rho * u.dagger(), 1e-10,
                       "MF identity");
  }
}

TEST_P(ZzThetaTest, KappaFormula) {
  const Real theta = GetParam();
  Real kappa = 0.0;
  Real sum = 0.0;
  for (const auto& t : zz_gate_cut_terms(theta)) {
    kappa += std::abs(t.coefficient);
    sum += t.coefficient;
  }
  EXPECT_NEAR(kappa, zz_gate_cut_overhead(theta), 1e-12);
  EXPECT_NEAR(sum, 1.0, 1e-12);  // cos² + sin² (signed terms cancel)
}

INSTANTIATE_TEST_SUITE_P(Angles, ZzThetaTest,
                         ::testing::Values(0.0, 0.1, kPi / 8, kPi / 4, -kPi / 4, 1.0),
                         [](const ::testing::TestParamInfo<Real>& info) {
                           return "theta" +
                                  std::to_string(static_cast<int>(std::round(
                                      (info.param + 2.0) * 1000)));
                         });

TEST(GateCut, CzOverheadIsThree) {
  EXPECT_NEAR(zz_gate_cut_overhead(kPi / 4.0), 3.0, 1e-12);
  EXPECT_NEAR(zz_gate_cut_overhead(-kPi / 4.0), 3.0, 1e-12);
  EXPECT_NEAR(zz_gate_cut_overhead(0.0), 1.0, 1e-12);  // identity gate is free
}

TEST(GateCut, CutZzInsideCircuitMatchesUncut) {
  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    Circuit circ(3, 0);
    circ.gate(haar_unitary(8, rng), {0, 1, 2}, "U");
    // Reference: same circuit WITH the ZZ gate on (0, 2).
    const Real theta = rng.uniform(-1.5, 1.5);
    Circuit with_gate(3, 0);
    with_gate.gate(circ.ops()[0].matrix(), {0, 1, 2}, "U");
    with_gate.gate(zz_unitary(theta), {0, 2}, "ZZ");

    const Qpd qpd = cut_zz_gate(circ, /*pos=*/1, 0, 2, theta, "ZXZ");
    EXPECT_NEAR(exact_value(qpd), uncut_circuit_expectation(with_gate, "ZXZ"), 1e-9)
        << "theta=" << theta;
  }
}

TEST(GateCut, CutCzMatchesRealCz) {
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    Circuit base(2, 0);
    base.gate(haar_unitary(4, rng), {0, 1}, "U");
    Circuit with_cz(2, 0);
    with_cz.gate(base.ops()[0].matrix(), {0, 1}, "U");
    with_cz.cz(0, 1);
    for (const char* obs : {"ZZ", "XI", "YX"}) {
      const Qpd qpd = cut_cz_gate(base, /*pos=*/1, 0, 1, obs);
      EXPECT_NEAR(exact_value(qpd), uncut_circuit_expectation(with_cz, obs), 1e-9) << obs;
      EXPECT_NEAR(qpd.kappa(), 3.0, 1e-10);
    }
  }
}

TEST(GateCut, SignedEstimatorConverges) {
  // Sampling through the signed-measurement branches stays unbiased.
  Rng rng(4);
  Circuit base(2, 0);
  base.h(0).h(1);
  Circuit with_cz(2, 0);
  with_cz.h(0).h(1).cz(0, 1);
  const Qpd qpd = cut_cz_gate(base, 2, 0, 1, "XX");
  const BatchedBranchBackend backend(qpd);
  const Real target = uncut_circuit_expectation(with_cz, "XX");

  RunningStats stats;
  for (int t = 0; t < 300; ++t) {
    const std::uint64_t seed = Rng(5, static_cast<std::uint64_t>(t))();
    stats.add(run_plan(qpd, ShotPlan::sampled(qpd, 400, seed), backend, seed).estimate);
  }
  EXPECT_NEAR(stats.mean(), target, 5.0 * stats.sem() + 1e-6);
}

TEST(GateCut, TermStructure) {
  // θ generic: 6 branches; θ = 0: the rotation part vanishes.
  EXPECT_EQ(zz_gate_cut_terms(0.7).size(), 6u);
  EXPECT_EQ(zz_gate_cut_terms(0.0).size(), 2u);
  // Gate-cut branches never consume entangled pairs. (The Qpd must be bound
  // to a local: ranging over `temporary.terms()` dangles — the temporary dies
  // before the loop body runs.)
  Circuit base(2, 0);
  base.h(0);
  const Qpd qpd = cut_zz_gate(base, 1, 0, 1, 0.5, "ZZ");
  for (const auto& term : qpd.terms()) {
    EXPECT_EQ(term.entangled_pairs, 0);
  }
}

TEST(GateCut, BranchesAreLocal) {
  // No multi-qubit unitary touches both gate qubits in any branch.
  Circuit base(2, 0);
  base.h(0).h(1);
  const Qpd qpd = cut_zz_gate(base, 2, 0, 1, 0.9, "ZZ");
  for (const auto& term : qpd.terms()) {
    for (const auto& op : term.circuit.ops()) {
      if (op.kind == OpKind::kUnitary) {
        EXPECT_LE(op.qubits.size(), 1u) << term.label << ": non-local op in gate-cut branch";
      }
    }
  }
}

TEST(GateCut, RejectsInvalidRequests) {
  Circuit base(2, 0);
  base.h(0);
  EXPECT_THROW(cut_zz_gate(base, 0, 0, 0, 0.5, "ZZ"), Error);  // same qubit
  EXPECT_THROW(cut_zz_gate(base, 5, 0, 1, 0.5, "ZZ"), Error);  // bad position
  EXPECT_THROW(cut_zz_gate(base, 0, 0, 1, 0.5, "Z"), Error);   // wrong obs length
  EXPECT_THROW(cut_zz_gate(base, 0, 0, 1, 0.5, "II"), Error);  // identity obs
}

}  // namespace
}  // namespace qcut
