// Statevector engine: gate kernels, measurement, projection, initialization.
#include <gtest/gtest.h>

#include <cmath>

#include "qcut/linalg/kron.hpp"
#include "qcut/linalg/pauli.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/sim/circuit.hpp"
#include "qcut/sim/gates.hpp"
#include "qcut/sim/statevector.hpp"
#include "test_helpers.hpp"

namespace qcut {
namespace {

using testing::expect_vector_near;

TEST(Statevector, StartsInZero) {
  Statevector sv(3);
  EXPECT_EQ(sv.amplitudes()[0], (Cplx{1, 0}));
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(Statevector, SingleQubitGateMatchesDenseEmbed) {
  Rng rng(1);
  for (int q = 0; q < 3; ++q) {
    const Matrix u = haar_unitary(2, rng);
    const Vector psi = random_statevector(8, rng);
    Statevector sv(3, psi);
    sv.apply(u, {q});
    const Vector expected = embed(u, {q}, 3) * psi;
    expect_vector_near(sv.amplitudes(), expected, 1e-10);
  }
}

TEST(Statevector, TwoQubitGateMatchesDenseEmbed) {
  Rng rng(2);
  const std::vector<std::vector<int>> pairs = {{0, 1}, {1, 0}, {0, 2}, {2, 0}, {1, 2}, {2, 1}};
  for (const auto& qs : pairs) {
    const Matrix u = haar_unitary(4, rng);
    const Vector psi = random_statevector(8, rng);
    Statevector sv(3, psi);
    sv.apply(u, qs);
    const Vector expected = embed(u, qs, 3) * psi;
    expect_vector_near(sv.amplitudes(), expected, 1e-10);
  }
}

TEST(Statevector, TwoQubitKernelAllPairsOnFourQubits) {
  // Stresses the specialized k==2 kernel across every stride combination
  // (adjacent, non-adjacent, both orders) on a larger register.
  Rng rng(12);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a == b) {
        continue;
      }
      const Matrix u = haar_unitary(4, rng);
      const Vector psi = random_statevector(16, rng);
      Statevector sv(4, psi);
      sv.apply(u, {a, b});
      const Vector expected = embed(u, {a, b}, 4) * psi;
      expect_vector_near(sv.amplitudes(), expected, 1e-10);
    }
  }
}

TEST(Statevector, ThreeQubitGateMatchesDenseEmbed) {
  Rng rng(3);
  const Matrix u = haar_unitary(8, rng);
  const Vector psi = random_statevector(16, rng);
  Statevector sv(4, psi);
  sv.apply(u, {3, 0, 2});
  const Vector expected = embed(u, {3, 0, 2}, 4) * psi;
  expect_vector_near(sv.amplitudes(), expected, 1e-10);
}

TEST(Statevector, BellCircuitAmplitudes) {
  Statevector sv(2);
  sv.apply(gates::h(), {0});
  sv.apply(gates::cx(), {0, 1});
  EXPECT_NEAR(sv.amplitudes()[0].real(), kInvSqrt2, 1e-12);
  EXPECT_NEAR(sv.amplitudes()[3].real(), kInvSqrt2, 1e-12);
  EXPECT_NEAR(std::abs(sv.amplitudes()[1]), 0.0, 1e-12);
}

TEST(Statevector, ProbOneBigEndian) {
  // Prepare |10⟩: qubit 0 is 1, qubit 1 is 0.
  Statevector sv(2);
  sv.apply(gates::x(), {0});
  EXPECT_NEAR(sv.prob_one(0), 1.0, 1e-12);
  EXPECT_NEAR(sv.prob_one(1), 0.0, 1e-12);
}

TEST(Statevector, MeasurementStatistics) {
  Rng rng(4);
  const Real theta = 1.1;
  int ones = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    Statevector sv(1);
    sv.apply(gates::ry(theta), {0});
    ones += sv.measure(0, rng);
  }
  const Real p1 = std::sin(theta / 2.0) * std::sin(theta / 2.0);
  EXPECT_NEAR(static_cast<Real>(ones) / trials, p1, 0.01);
}

TEST(Statevector, MeasurementCollapses) {
  Rng rng(5);
  Statevector sv(2);
  sv.apply(gates::h(), {0});
  sv.apply(gates::cx(), {0, 1});
  const int outcome = sv.measure(0, rng);
  // Bell pair: second qubit must agree with the first.
  EXPECT_NEAR(sv.prob_one(1), static_cast<Real>(outcome), 1e-12);
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(Statevector, ProjectReturnsBranchProbability) {
  Statevector sv(1);
  sv.apply(gates::ry(kPi / 2.0), {0});  // equal superposition
  Statevector copy = sv;
  EXPECT_NEAR(copy.project(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(copy.prob_one(0), 0.0, 1e-12);
  EXPECT_NEAR(sv.project(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(sv.prob_one(0), 1.0, 1e-12);
}

TEST(Statevector, ResetSendsToZero) {
  Rng rng(6);
  for (int t = 0; t < 20; ++t) {
    Statevector sv(2, random_statevector(4, rng));
    sv.reset(1, rng);
    EXPECT_NEAR(sv.prob_one(1), 0.0, 1e-12);
    EXPECT_NEAR(sv.norm(), 1.0, 1e-10);
  }
}

TEST(Statevector, InitializeFreshQubits) {
  Rng rng(7);
  const Vector target = random_statevector(2, rng);
  Statevector sv(2);
  sv.apply(gates::ry(0.9), {0});  // qubit 1 still |0⟩
  sv.initialize({1}, target);
  // Joint state must be (Ry|0⟩) ⊗ target.
  Statevector ref(2);
  ref.apply(gates::ry(0.9), {0});
  const Vector expected = kron(Vector{ref.amplitudes()[0], ref.amplitudes()[2]}, target);
  expect_vector_near(sv.amplitudes(), expected, 1e-10);
}

TEST(Statevector, InitializeRejectsOccupiedQubits) {
  // Regression: this precondition used to be a debug-only check, so release
  // builds silently scaled the surviving amplitudes by stale weight. It must
  // throw in every build configuration.
  Rng rng(71);
  const Vector target = random_statevector(2, rng);
  Statevector sv(2);
  sv.apply(gates::h(), {1});  // qubit 1 now carries weight on |1⟩
  EXPECT_THROW(sv.initialize({1}, target), Error);
  // The entangled case must be rejected too: after CX the target qubit has
  // weight on |1⟩ through correlation with qubit 0.
  Statevector bell(2);
  bell.apply(gates::h(), {0});
  bell.apply(gates::cx(), {0, 1});
  EXPECT_THROW(bell.initialize({1}, target), Error);
}

TEST(Statevector, ProjectZeroProbabilityBranchHasNoNaNs) {
  // project() onto an impossible outcome must return exactly 0 and leave the
  // all-zero vector rather than renormalizing 0/0 into NaNs.
  Statevector sv(1);  // |0⟩: outcome 1 has probability exactly 0
  const Real p = sv.project(0, 1);
  EXPECT_EQ(p, 0.0);
  for (const Cplx& a : sv.amplitudes()) {
    EXPECT_TRUE(std::isfinite(a.real()) && std::isfinite(a.imag()));
    EXPECT_EQ(a, (Cplx{0.0, 0.0}));
  }
}

TEST(Statevector, InitializeMultiQubit) {
  Rng rng(8);
  const Vector target = random_statevector(4, rng);
  Statevector sv(2);
  sv.initialize({0, 1}, target);
  expect_vector_near(sv.amplitudes(), target, 1e-12);
}

TEST(Statevector, ExpectationPauliMatchesDense) {
  Rng rng(9);
  const Vector psi = random_statevector(8, rng);
  Statevector sv(3, psi);
  for (const char* p : {"ZII", "IXI", "IIY", "XYZ", "ZZZ", "III"}) {
    const Real dense = expectation(pauli_string(p), psi).real();
    EXPECT_NEAR(sv.expectation_pauli(p), dense, 1e-10) << p;
  }
}

TEST(Statevector, ProbabilitiesSumToOne) {
  Rng rng(10);
  Statevector sv(3, random_statevector(8, rng));
  Real total = 0.0;
  for (Real p : sv.probabilities()) {
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(Statevector, SampleFollowsDistribution) {
  Rng rng(11);
  Statevector sv(1);
  sv.apply(gates::ry(2.0 * std::acos(std::sqrt(0.3))), {0});  // P(0) = 0.3
  int zeros = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    zeros += (sv.sample(rng) == 0) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<Real>(zeros) / trials, 0.3, 0.015);
}

TEST(Statevector, RejectsDuplicateQubits) {
  Rng rng(13);
  Statevector sv(3);
  EXPECT_THROW(sv.apply(haar_unitary(4, rng), {1, 1}), Error);
  EXPECT_THROW(sv.apply(haar_unitary(8, rng), {0, 2, 0}), Error);
}

TEST(Statevector, RejectsBadConstruction) {
  EXPECT_THROW(Statevector(0), Error);
  EXPECT_THROW(Statevector(2, Vector{Cplx{1, 0}}), Error);
  EXPECT_THROW(Statevector(1, Vector{Cplx{2, 0}, Cplx{0, 0}}), Error);
  // Widths above the cap must fail on the check, BEFORE the 2^n allocation:
  // at 40 qubits a check-after-alloc would be a 16 TiB bad_alloc/OOM kill,
  // not this Error. (Circuit IR legally holds such widths now.)
  EXPECT_THROW(Statevector(Statevector::kMaxQubits + 1), Error);
  EXPECT_THROW(Statevector(40), Error);
  EXPECT_THROW(Statevector(Circuit::kMaxQubits), Error);
}

}  // namespace
}  // namespace qcut
