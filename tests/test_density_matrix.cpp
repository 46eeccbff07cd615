// Density-matrix engine, including cross-validation against the statevector
// engine on random circuits (property test).
#include <gtest/gtest.h>

#include "qcut/linalg/kron.hpp"
#include "qcut/linalg/pauli.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/sim/density_matrix.hpp"
#include "qcut/sim/gates.hpp"
#include "qcut/sim/noise.hpp"
#include "qcut/sim/statevector.hpp"
#include "test_helpers.hpp"

namespace qcut {
namespace {

using testing::expect_matrix_near;

TEST(DensityMatrix, StartsInZero) {
  DensityMatrix dm(2);
  EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
  EXPECT_NEAR(dm.rho()(0, 0).real(), 1.0, 1e-12);
}

TEST(DensityMatrix, UnitaryMatchesStatevector) {
  // Property: applying the same random gate sequence to both engines gives
  // rho = |psi><psi| throughout.
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 3;
    Statevector sv(n);
    DensityMatrix dm(n);
    for (int step = 0; step < 6; ++step) {
      if (rng.bernoulli(0.5)) {
        const Matrix u = haar_unitary(2, rng);
        const int q = static_cast<int>(rng.uniform_u64(n));
        sv.apply(u, {q});
        dm.apply_unitary(u, {q});
      } else {
        const Matrix u = haar_unitary(4, rng);
        const int q = static_cast<int>(rng.uniform_u64(n - 1));
        sv.apply(u, {q, q + 1});
        dm.apply_unitary(u, {q, q + 1});
      }
    }
    expect_matrix_near(dm.rho(), density(sv.amplitudes()), 1e-9, "sv vs dm");
  }
}

TEST(DensityMatrix, ProbOneAgreesWithStatevector) {
  Rng rng(2);
  const Vector psi = random_statevector(8, rng);
  Statevector sv(3, psi);
  DensityMatrix dm = DensityMatrix::from_statevector(3, psi);
  for (int q = 0; q < 3; ++q) {
    EXPECT_NEAR(dm.prob_one(q), sv.prob_one(q), 1e-10);
  }
}

TEST(DensityMatrix, ChannelApplication) {
  Rng rng(3);
  const Matrix rho_in = random_density(2, rng);
  DensityMatrix dm(1, rho_in);
  dm.apply_channel(depolarizing(1.0), {0});
  expect_matrix_near(dm.rho(), 0.5 * Matrix::identity(2), 1e-10, "full depolarizing");
}

TEST(DensityMatrix, ChannelOnSubsystem) {
  Rng rng(4);
  const Matrix ra = random_density(2, rng);
  const Matrix rb = random_density(2, rng);
  DensityMatrix dm(2, kron(ra, rb));
  dm.apply_channel(bit_flip(1.0), {1});
  const Matrix expected = kron(ra, pauli_x() * rb * pauli_x());
  expect_matrix_near(dm.rho(), expected, 1e-10);
}

TEST(DensityMatrix, ProjectUnnormalized) {
  DensityMatrix dm(1);
  dm.apply_unitary(gates::h(), {0});
  DensityMatrix copy = dm;
  const Real p0 = copy.project_unnormalized(0, 0);
  EXPECT_NEAR(p0, 0.5, 1e-12);
  EXPECT_NEAR(copy.trace(), 0.5, 1e-12);  // unnormalized branch
  const Real p1 = dm.project_unnormalized(0, 1);
  EXPECT_NEAR(p1, 0.5, 1e-12);
}

TEST(DensityMatrix, DephaseKillsCoherence) {
  DensityMatrix dm(1);
  dm.apply_unitary(gates::h(), {0});
  dm.dephase(0);
  expect_matrix_near(dm.rho(), 0.5 * Matrix::identity(2), 1e-12);
}

TEST(DensityMatrix, ResetChannel) {
  Rng rng(5);
  DensityMatrix dm(2, random_density(4, rng));
  dm.reset(1);
  EXPECT_NEAR(dm.prob_one(1), 0.0, 1e-10);
  EXPECT_NEAR(dm.trace(), 1.0, 1e-10);  // reset is trace preserving
}

TEST(DensityMatrix, ExpectationPauli) {
  Rng rng(6);
  const Vector psi = random_statevector(4, rng);
  DensityMatrix dm = DensityMatrix::from_statevector(2, psi);
  Statevector sv(2, psi);
  for (const char* p : {"ZI", "IZ", "XX", "YZ"}) {
    EXPECT_NEAR(dm.expectation_pauli(p), sv.expectation_pauli(p), 1e-10) << p;
  }
}

TEST(DensityMatrix, Renormalize) {
  DensityMatrix dm(1);
  dm.apply_unitary(gates::h(), {0});
  dm.project_unnormalized(0, 0);
  dm.renormalize();
  EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
}

TEST(DensityMatrix, MixedStateEvolution) {
  // Mixed input through a unitary stays mixed with same spectrum.
  Rng rng(7);
  const Matrix rho = random_density(2, rng);
  const Real purity_in = (rho * rho).trace().real();
  DensityMatrix dm(1, rho);
  dm.apply_unitary(haar_unitary(2, rng), {0});
  const Real purity_out = (dm.rho() * dm.rho()).trace().real();
  EXPECT_NEAR(purity_in, purity_out, 1e-10);
}

TEST(DensityMatrix, RejectsBadConstruction) {
  EXPECT_THROW(DensityMatrix(0), Error);
  EXPECT_THROW(DensityMatrix(1, Matrix::identity(4)), Error);
}

}  // namespace
}  // namespace qcut
