// Specialized statevector kernels: gate-structure classification pins, and
// the property test that the diagonal / permutation / dense dispatch paths
// agree with the generic gather path on random states to 1e-12 — including
// the n = 1 and qubit-adjacency edge cases.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "qcut/common/threadpool.hpp"
#include "qcut/linalg/kron.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/sim/circuit.hpp"
#include "qcut/sim/gate_class.hpp"
#include "qcut/sim/gates.hpp"
#include "qcut/sim/simd_dispatch.hpp"
#include "qcut/sim/statevector.hpp"
#include "pool_scope.hpp"

namespace qcut {
namespace {

// ---- classification pins ----------------------------------------------------

TEST(GateClass, ClassifiesStandardGates) {
  EXPECT_EQ(classify_gate(gates::h()).structure, GateStructure::kGeneric);
  EXPECT_EQ(classify_gate(gates::y()).structure, GateStructure::kGeneric);
  EXPECT_EQ(classify_gate(gates::rx(0.3)).structure, GateStructure::kGeneric);

  EXPECT_EQ(classify_gate(gates::z()).structure, GateStructure::kDiagonal);
  EXPECT_EQ(classify_gate(gates::s()).structure, GateStructure::kDiagonal);
  EXPECT_EQ(classify_gate(gates::t()).structure, GateStructure::kDiagonal);
  EXPECT_EQ(classify_gate(gates::rz(0.7)).structure, GateStructure::kDiagonal);
  EXPECT_EQ(classify_gate(gates::cz()).structure, GateStructure::kDiagonal);
  EXPECT_EQ(classify_gate(gates::controlled(gates::phase(0.4))).structure,
            GateStructure::kDiagonal);

  EXPECT_EQ(classify_gate(gates::x()).structure, GateStructure::kPermutation);
  EXPECT_EQ(classify_gate(gates::cx()).structure, GateStructure::kPermutation);
  EXPECT_EQ(classify_gate(gates::swap()).structure, GateStructure::kPermutation);
}

TEST(GateClass, SparsePhaseDetection) {
  // z = diag(1, -1): one non-unit entry at sub-index 1.
  const GateClass z = classify_gate(gates::z());
  EXPECT_EQ(z.phase_index, 1);
  // cz = diag(1, 1, 1, -1): non-unit entry at sub-index 3.
  const GateClass cz = classify_gate(gates::cz());
  EXPECT_EQ(cz.phase_index, 3);
  // rz has two non-unit entries: a dense diagonal, no sparse phase.
  EXPECT_EQ(classify_gate(gates::rz(0.7)).phase_index, -1);
  // The identity is a sparse phase whose phase entry is 1 (a no-op).
  const GateClass id = classify_gate(Matrix::identity(2));
  EXPECT_EQ(id.structure, GateStructure::kDiagonal);
  EXPECT_GE(id.phase_index, 0);
}

TEST(GateClass, PermutationCyclesArePrecomputed) {
  // Cycles are flattened as (length, members...) runs.
  const GateClass cx = classify_gate(gates::cx());
  EXPECT_EQ(cx.cycles, (std::vector<Index>{2, 2, 3}));
  const GateClass sw = classify_gate(gates::swap());
  EXPECT_EQ(sw.cycles, (std::vector<Index>{2, 1, 2}));
  // A 4-cycle: |s> -> |s+1 mod 4>.
  Matrix rot(4, 4);
  rot(1, 0) = rot(2, 1) = rot(3, 2) = rot(0, 3) = Cplx{1.0, 0.0};
  const GateClass rc = classify_gate(rot);
  ASSERT_EQ(rc.structure, GateStructure::kPermutation);
  EXPECT_EQ(rc.cycles, (std::vector<Index>{4, 0, 1, 2, 3}));
  // Two disjoint 2-cycles: |0> <-> |1>, |2> <-> |3> (x on the low qubit).
  const GateClass xl = classify_gate(kron(Matrix::identity(2), gates::x()));
  EXPECT_EQ(xl.cycles, (std::vector<Index>{2, 0, 1, 2, 2, 3}));
}

TEST(GateClass, NearZeroEntriesStayGeneric) {
  // Classification is by exact entry tests: an almost-diagonal matrix must
  // NOT classify as diagonal (the kernels would silently drop the residue).
  Matrix m = Matrix::identity(2);
  m(0, 1) = Cplx{1e-30, 0.0};
  EXPECT_EQ(classify_gate(m).structure, GateStructure::kGeneric);
}

// ---- kernel equivalence ----------------------------------------------------

/// Applies `u` on a copy of `sv` twice — once via the classified dispatch,
/// once forced down the dense path — and requires amplitude agreement.
void expect_kernel_equivalence(const Statevector& sv, const Matrix& u,
                               const std::vector<int>& qubits, const char* what) {
  const GateClass cls = classify_gate(u);
  const GateClass dense{};
  Statevector a = sv;
  Statevector b = sv;
  a.apply(u, qubits, cls);
  b.apply(u, qubits, dense);
  const Vector& va = a.amplitudes();
  const Vector& vb = b.amplitudes();
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_NEAR(va[i].real(), vb[i].real(), 1e-12) << what << " amp " << i;
    EXPECT_NEAR(va[i].imag(), vb[i].imag(), 1e-12) << what << " amp " << i;
  }
}

Matrix random_diagonal(int k, Rng& rng, bool sparse) {
  const Index dim = Index{1} << k;
  Matrix m(dim, dim);
  for (Index i = 0; i < dim; ++i) {
    m(i, i) = Cplx{1.0, 0.0};
  }
  if (sparse) {
    const Index hot = static_cast<Index>(rng.uniform_u64(static_cast<std::uint64_t>(dim)));
    const Real phi = rng.uniform(0.0, 2.0 * kPi);
    m(hot, hot) = Cplx{std::cos(phi), std::sin(phi)};
  } else {
    for (Index i = 0; i < dim; ++i) {
      const Real phi = rng.uniform(0.0, 2.0 * kPi);
      m(i, i) = Cplx{std::cos(phi), std::sin(phi)};
    }
  }
  return m;
}

Matrix random_permutation_matrix(int k, Rng& rng) {
  const Index dim = Index{1} << k;
  std::vector<Index> perm(static_cast<std::size_t>(dim));
  for (Index i = 0; i < dim; ++i) {
    perm[static_cast<std::size_t>(i)] = i;
  }
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.uniform_u64(i)]);
  }
  Matrix m(dim, dim);
  for (Index s = 0; s < dim; ++s) {
    m(perm[static_cast<std::size_t>(s)], s) = Cplx{1.0, 0.0};
  }
  return m;
}

TEST(KernelEquivalence, SingleQubitOnOneQubitState) {
  // n = 1: the stride loops degenerate to a single group.
  Rng rng(5);
  const Statevector sv(1, random_statevector(2, rng));
  expect_kernel_equivalence(sv, gates::z(), {0}, "z n=1");
  expect_kernel_equivalence(sv, gates::x(), {0}, "x n=1");
  expect_kernel_equivalence(sv, gates::rz(0.9), {0}, "rz n=1");
  expect_kernel_equivalence(sv, random_diagonal(1, rng, false), {0}, "diag n=1");
}

TEST(KernelEquivalence, QubitAdjacencyEdgeCases) {
  // Two-qubit kernels across every adjacency shape: neighbors at the top,
  // neighbors at the bottom, the extreme non-neighbors, and reversed operand
  // order (sub-index convention: qubits[0] is the high bit).
  Rng rng(7);
  const int n = 6;
  const Statevector sv(n, random_statevector(Index{1} << n, rng));
  const std::vector<std::vector<int>> pairs = {
      {0, 1}, {1, 0}, {n - 2, n - 1}, {n - 1, n - 2}, {0, n - 1}, {n - 1, 0}, {2, 4}};
  for (const auto& qs : pairs) {
    const std::string tag = "pair {" + std::to_string(qs[0]) + "," + std::to_string(qs[1]) + "}";
    expect_kernel_equivalence(sv, gates::cx(), qs, (tag + " cx").c_str());
    expect_kernel_equivalence(sv, gates::swap(), qs, (tag + " swap").c_str());
    expect_kernel_equivalence(sv, gates::cz(), qs, (tag + " cz").c_str());
    expect_kernel_equivalence(sv, gates::controlled(gates::phase(0.8)), qs,
                              (tag + " cu1").c_str());
    expect_kernel_equivalence(sv, random_diagonal(2, rng, false), qs, (tag + " diag").c_str());
    expect_kernel_equivalence(sv, random_permutation_matrix(2, rng), qs,
                              (tag + " perm").c_str());
  }
}

TEST(KernelEquivalence, RandomGatesOnRandomStates) {
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform_u64(7));  // 1..7
    const Statevector sv(n, random_statevector(Index{1} << n, rng));
    // Random qubit selection, k in 1..min(3, n), order shuffled.
    const int k = 1 + static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(
                          std::min(3, n))));
    std::vector<int> qs;
    while (static_cast<int>(qs.size()) < k) {
      const int q = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n)));
      bool dup = false;
      for (const int existing : qs) {
        dup = dup || existing == q;
      }
      if (!dup) {
        qs.push_back(q);
      }
    }
    const std::string tag = "trial " + std::to_string(trial);
    expect_kernel_equivalence(sv, random_diagonal(k, rng, /*sparse=*/false), qs,
                              (tag + " diag").c_str());
    expect_kernel_equivalence(sv, random_diagonal(k, rng, /*sparse=*/true), qs,
                              (tag + " sparse").c_str());
    expect_kernel_equivalence(sv, random_permutation_matrix(k, rng), qs,
                              (tag + " perm").c_str());
    expect_kernel_equivalence(sv, haar_unitary(Index{1} << k, rng), qs,
                              (tag + " haar").c_str());
  }
}

TEST(KernelEquivalence, CircuitBuilderClassificationMatchesOnTheFly) {
  // Ops classified once at build time must behave exactly like per-apply
  // classification: run the same gate sequence both ways.
  Rng rng(13);
  const int n = 5;
  Circuit c(n, 0);
  c.h(0).cx(0, 1).rz(1, 0.4).cz(1, 2).swap_gate(2, 3).t(4).cx(3, 4).z(0);
  Statevector via_ops(n, random_statevector(Index{1} << n, rng));
  Statevector via_fresh = via_ops;
  for (const Operation& op : c.ops()) {
    via_ops.apply(op.matrix(), op.qubits, op.gclass());
    via_fresh.apply(op.matrix(), op.qubits);
  }
  for (std::size_t i = 0; i < via_ops.amplitudes().size(); ++i) {
    EXPECT_EQ(via_ops.amplitudes()[i], via_fresh.amplitudes()[i]) << "amp " << i;
  }
}

TEST(KernelEquivalence, ProjectedMatchesCopyThenProject) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform_u64(5));
    const Statevector sv(n, random_statevector(Index{1} << n, rng));
    for (int q = 0; q < n; ++q) {
      for (int outcome = 0; outcome <= 1; ++outcome) {
        Statevector copy = sv;
        copy.project(q, outcome);
        const Statevector one_pass = Statevector::projected(sv, q, outcome);
        for (std::size_t i = 0; i < copy.amplitudes().size(); ++i) {
          EXPECT_EQ(copy.amplitudes()[i], one_pass.amplitudes()[i])
              << "q=" << q << " outcome=" << outcome << " amp " << i;
        }
      }
    }
  }
}

TEST(KernelEquivalence, ZOnlyExpectationMatchesGenericPath) {
  // The I/Z fast path in expectation_pauli vs. the copy-and-apply route
  // (forced by including an X in a companion string on the same state).
  Rng rng(19);
  const int n = 4;
  const Statevector sv(n, random_statevector(Index{1} << n, rng));
  // Reference by explicit basis sweep.
  for (const char* pauli : {"ZZZZ", "ZIIZ", "IIII", "IZII"}) {
    Real expect = 0.0;
    for (Index i = 0; i < sv.dim(); ++i) {
      int parity = 0;
      for (int q = 0; q < n; ++q) {
        if (pauli[static_cast<std::size_t>(q)] == 'Z' && (i >> (n - 1 - q)) & 1) {
          parity ^= 1;
        }
      }
      const Real w = norm2(sv.amplitudes()[static_cast<std::size_t>(i)]);
      expect += parity ? -w : w;
    }
    EXPECT_NEAR(sv.expectation_pauli(pauli), expect, 1e-12) << pauli;
  }
}

// ---- SIMD tier equivalence --------------------------------------------------

/// Restores the dispatch tier on scope exit, so a failing assertion cannot
/// leak a forced tier into later tests.
class TierGuard {
 public:
  TierGuard() : saved_(active_simd_tier()) {}
  ~TierGuard() { force_simd_tier(saved_); }

 private:
  SimdTier saved_;
};

/// A circuit mixing every kernel family: dense 1q/2q, diagonal (dense and
/// sparse-phase), and permutation gates, spread over all wires including the
/// LSB (the s == 1 pair-kernel path) and non-adjacent pairs.
Circuit kernel_mix_circuit(int n, int depth, Rng& rng) {
  Circuit c(n, 0);
  for (int d = 0; d < depth; ++d) {
    const int q = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n)));
    const int r = (q + 1 + static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n - 1)))) % n;
    switch (rng.uniform_u64(7)) {
      case 0:
        c.gate(haar_unitary(2, rng), {q}, "u1q");
        break;
      case 1:
        c.gate(haar_unitary(4, rng), {q, r}, "u2q");
        break;
      case 2:
        c.rz(q, rng.uniform(0.0, 2.0 * kPi));
        break;
      case 3:
        c.cz(q, r);
        break;
      case 4:
        c.cx(q, r);
        break;
      case 5:
        c.gate(random_diagonal(2, rng, /*sparse=*/false), {q, r}, "diag2");
        break;
      default:
        c.t(q);
        break;
    }
  }
  return c;
}

TEST(SimdTiers, EveryAvailableTierMatchesScalar) {
  // The same random circuit applied under each compiled-and-supported
  // dispatch tier must agree with the scalar tier on amplitudes, measurement
  // probabilities, projections, and Z expectations to 1e-12 (FMA contraction
  // reorders roundoff, so bit-identity across tiers is NOT required).
  TierGuard guard;
  Rng rng(29);
  const int n = 9;
  const Circuit c = kernel_mix_circuit(n, 60, rng);
  const Vector amps = random_statevector(Index{1} << n, rng);

  struct TierResult {
    Vector amp;
    std::vector<Real> probs;
    Real zexp = 0.0;
    Vector projected;
  };
  const auto run_under = [&](SimdTier tier) {
    force_simd_tier(tier);
    TierResult res;
    Statevector sv(n, amps);
    for (const Operation& op : c.ops()) {
      sv.apply(op.matrix(), op.qubits, op.gclass());
    }
    res.amp = sv.amplitudes();
    for (int q = 0; q < n; ++q) {
      res.probs.push_back(sv.prob_one(q));
    }
    res.zexp = sv.expectation_pauli(std::string(static_cast<std::size_t>(n), 'Z'));
    sv.project(n - 1, 1);  // LSB wire: exercises the s == 1 project path
    sv.project(0, 0);
    res.projected = sv.amplitudes();
    return res;
  };

  const TierResult scalar = run_under(SimdTier::kScalar);
  // On x86 CI runners the AVX2 tier must actually be exercised.
  const bool avx2 = simd_tier_available(SimdTier::kAvx2);
  RecordProperty("tiers_run", avx2 ? 2 : 1);
  if (!avx2) {
    return;
  }
  const TierResult got = run_under(SimdTier::kAvx2);
  const char* name = simd_tier_name(SimdTier::kAvx2);
  ASSERT_EQ(got.amp.size(), scalar.amp.size());
  for (std::size_t i = 0; i < got.amp.size(); ++i) {
    EXPECT_NEAR(got.amp[i].real(), scalar.amp[i].real(), 1e-12) << name << " amp " << i;
    EXPECT_NEAR(got.amp[i].imag(), scalar.amp[i].imag(), 1e-12) << name << " amp " << i;
  }
  for (int q = 0; q < n; ++q) {
    EXPECT_NEAR(got.probs[static_cast<std::size_t>(q)],
                scalar.probs[static_cast<std::size_t>(q)], 1e-12)
        << name << " prob_one(" << q << ")";
  }
  EXPECT_NEAR(got.zexp, scalar.zexp, 1e-12) << name;
  for (std::size_t i = 0; i < got.projected.size(); ++i) {
    EXPECT_NEAR(got.projected[i].real(), scalar.projected[i].real(), 1e-12)
        << name << " projected amp " << i;
    EXPECT_NEAR(got.projected[i].imag(), scalar.projected[i].imag(), 1e-12)
        << name << " projected amp " << i;
  }
}

TEST(SimdTiers, ForcingAnUnavailableTierThrows) {
  TierGuard guard;
  if (!simd_tier_available(SimdTier::kAvx2)) {
    EXPECT_THROW(force_simd_tier(SimdTier::kAvx2), Error);
  }
  // A value outside the enum names no tier.
  EXPECT_FALSE(simd_tier_available(static_cast<SimdTier>(2)));
  EXPECT_THROW(force_simd_tier(static_cast<SimdTier>(2)), Error);
}

// ---- parallel sweep bit-identity --------------------------------------------

/// Restores the default sweep threshold on scope exit.
class ParallelConfigGuard {
 public:
  ~ParallelConfigGuard() { Statevector::set_parallel_min_qubits(22); }
};

TEST(ParallelSweeps, PoolSizeBitIdentity) {
  // Chunk boundaries are fixed in group space and reductions sum per-chunk
  // partials in chunk order, so amplitudes, probabilities, and projections
  // must be BIT-identical for any pool size — compared here against the
  // serial run at n = 18 (two or more fixed chunks per sweep).
  ParallelConfigGuard guard;
  Rng rng(31);
  const int n = 18;
  const Vector amps = random_statevector(Index{1} << n, rng);
  const Circuit c = kernel_mix_circuit(n, 24, rng);

  const auto run_with = [&](int threshold) {
    Statevector::set_parallel_min_qubits(threshold);
    Statevector sv(n, amps);
    for (const Operation& op : c.ops()) {
      sv.apply(op.matrix(), op.qubits, op.gclass());
    }
    const Real p = sv.prob_one(3);
    sv.project(3, p >= 0.5 ? 1 : 0);
    return std::make_pair(sv.amplitudes(), p);
  };

  // Serial reference: the default threshold (22) keeps an 18-qubit state
  // inline whatever the request's pool.
  const auto ref = run_with(22);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(workers);
    const qcut::testing::ScopedPool scope(pool);
    const auto got = run_with(n);
    EXPECT_EQ(got.second, ref.second) << "prob, pool size " << workers;
    ASSERT_EQ(got.first.size(), ref.first.size());
    for (std::size_t i = 0; i < got.first.size(); ++i) {
      ASSERT_EQ(got.first[i], ref.first[i]) << "pool size " << workers << " amp " << i;
    }
  }
}

// ---- per-position kernels ----------------------------------------------------

/// The tiers this build and CPU can run: scalar always, AVX2 when present.
std::vector<SimdTier> available_tiers() {
  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  if (simd_tier_available(SimdTier::kAvx2)) {
    tiers.push_back(SimdTier::kAvx2);
  }
  return tiers;
}

/// The dense gather/scatter definition of applying `u` to `qubits`
/// (qubits[0] is the high sub-index bit), one basis index at a time.
Vector reference_apply(const Vector& in, int n, const Matrix& u, const std::vector<int>& qubits) {
  const int k = static_cast<int>(qubits.size());
  Index mask = 0;
  for (const int q : qubits) {
    mask |= Index{1} << (n - 1 - q);
  }
  const auto with_sub = [&](Index i, Index sub) {
    Index idx = i & ~mask;
    for (int j = 0; j < k; ++j) {
      if ((sub >> (k - 1 - j)) & 1) {
        idx |= Index{1} << (n - 1 - qubits[static_cast<std::size_t>(j)]);
      }
    }
    return idx;
  };
  Vector out(in.size());
  for (Index i = 0; i < static_cast<Index>(in.size()); ++i) {
    Index row = 0;
    for (int j = 0; j < k; ++j) {
      row = (row << 1) | ((i >> (n - 1 - qubits[static_cast<std::size_t>(j)])) & 1);
    }
    Cplx acc{0.0, 0.0};
    for (Index col = 0; col < (Index{1} << k); ++col) {
      acc += u(row, col) * in[static_cast<std::size_t>(with_sub(i, col))];
    }
    out[static_cast<std::size_t>(i)] = acc;
  }
  return out;
}

void expect_amps_near(const Vector& got, const Vector& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].real(), want[i].real(), 1e-12) << what << " amp " << i;
    EXPECT_NEAR(got[i].imag(), want[i].imag(), 1e-12) << what << " amp " << i;
  }
}

void expect_matches_reference(const Statevector& sv, const Matrix& u,
                              const std::vector<int>& qubits, const std::string& what) {
  Statevector got = sv;
  got.apply(u, qubits, classify_gate(u));
  expect_amps_near(got.amplitudes(), reference_apply(sv.amplitudes(), sv.n_qubits(), u, qubits),
                   what);
}

TEST(KernelPositions, OneQubitFamiliesAtEveryTarget) {
  // Every target stride, from the top qubit down to the least significant
  // bit, under each tier: the lo == 1 and lo == 2 loop shapes included.
  TierGuard guard;
  Rng rng(43);
  const int n = 12;
  const Statevector sv(n, random_statevector(Index{1} << n, rng));
  const Matrix dense = haar_unitary(2, rng);
  const Matrix diag = random_diagonal(1, rng, /*sparse=*/false);
  const Matrix phase = gates::phase(0.9);
  ASSERT_EQ(classify_gate(dense).structure, GateStructure::kGeneric);
  ASSERT_EQ(classify_gate(diag).phase_index, -1);
  ASSERT_GE(classify_gate(phase).phase_index, 0);
  for (const SimdTier tier : available_tiers()) {
    force_simd_tier(tier);
    for (int q = 0; q < n; ++q) {
      const std::string tag = std::string(simd_tier_name(tier)) + " q" + std::to_string(q);
      expect_matches_reference(sv, dense, {q}, tag + " dense");
      expect_matches_reference(sv, diag, {q}, tag + " diag");
      expect_matches_reference(sv, phase, {q}, tag + " phase");
      expect_matches_reference(sv, gates::z(), {q}, tag + " z");
      expect_matches_reference(sv, gates::x(), {q}, tag + " x");
    }
  }
}

TEST(KernelPositions, TwoQubitFamiliesAtBothEndsAndBothOrders) {
  TierGuard guard;
  Rng rng(47);
  const int n = 12;
  const Statevector sv(n, random_statevector(Index{1} << n, rng));
  const std::vector<std::vector<int>> pairs = {
      {0, 1}, {1, 0}, {n - 2, n - 1}, {n - 1, n - 2}, {0, n - 1}, {n - 1, 0},
      {n - 3, n - 1}, {n - 1, n - 3}};
  const Matrix dense = haar_unitary(4, rng);
  const Matrix diag = random_diagonal(2, rng, /*sparse=*/false);
  const Matrix perm = random_permutation_matrix(2, rng);
  ASSERT_EQ(classify_gate(dense).structure, GateStructure::kGeneric);
  ASSERT_EQ(classify_gate(diag).phase_index, -1);
  ASSERT_EQ(classify_gate(perm).structure, GateStructure::kPermutation);
  for (const SimdTier tier : available_tiers()) {
    force_simd_tier(tier);
    for (const auto& qs : pairs) {
      const std::string tag = std::string(simd_tier_name(tier)) + " {" + std::to_string(qs[0]) +
                              "," + std::to_string(qs[1]) + "}";
      expect_matches_reference(sv, gates::cx(), qs, tag + " cx");
      expect_matches_reference(sv, gates::swap(), qs, tag + " swap");
      expect_matches_reference(sv, gates::cz(), qs, tag + " cz");
      expect_matches_reference(sv, gates::controlled(gates::phase(0.8)), qs, tag + " cu1");
      expect_matches_reference(sv, diag, qs, tag + " diag");
      expect_matches_reference(sv, dense, qs, tag + " dense");
      expect_matches_reference(sv, perm, qs, tag + " perm");
    }
  }
}

TEST(KernelPositions, MeasurementSweepsAtEveryQubit) {
  // prob_one, project, projected, reset and a single-Z expectation at every
  // qubit against naive basis sweeps, under each tier.
  TierGuard guard;
  Rng rng(53);
  const int n = 12;
  const Statevector sv(n, random_statevector(Index{1} << n, rng));
  const Vector& amps = sv.amplitudes();
  for (const SimdTier tier : available_tiers()) {
    force_simd_tier(tier);
    for (int q = 0; q < n; ++q) {
      const std::string tag = std::string(simd_tier_name(tier)) + " q" + std::to_string(q);
      const Index s = Index{1} << (n - 1 - q);
      Real p1 = 0.0;
      Real zexp = 0.0;
      for (Index i = 0; i < sv.dim(); ++i) {
        const Real w = norm2(amps[static_cast<std::size_t>(i)]);
        p1 += (i & s) ? w : 0.0;
        zexp += (i & s) ? -w : w;
      }
      EXPECT_NEAR(sv.prob_one(q), p1, 1e-12) << tag;
      std::string pauli(static_cast<std::size_t>(n), 'I');
      pauli[static_cast<std::size_t>(q)] = 'Z';
      EXPECT_NEAR(sv.expectation_pauli(pauli), zexp, 1e-12) << tag;

      for (int outcome = 0; outcome <= 1; ++outcome) {
        const Real p = outcome ? p1 : 1.0 - p1;
        Vector want(amps.size(), Cplx{0.0, 0.0});
        for (Index i = 0; i < sv.dim(); ++i) {
          if (((i & s) != 0) == (outcome == 1)) {
            want[static_cast<std::size_t>(i)] = amps[static_cast<std::size_t>(i)] / std::sqrt(p);
          }
        }
        Statevector in_place = sv;
        EXPECT_NEAR(in_place.project(q, outcome), p, 1e-12) << tag;
        expect_amps_near(in_place.amplitudes(), want, tag + " project");
        expect_amps_near(Statevector::projected(sv, q, outcome).amplitudes(), want,
                         tag + " projected");
      }

      // reset: the branch the same draw picks, moved back to |0> on q.
      Rng draw(900 + static_cast<std::uint64_t>(q));
      Rng expect_draw(900 + static_cast<std::uint64_t>(q));
      const int outcome = expect_draw.bernoulli(p1) ? 1 : 0;
      const Real p = outcome ? p1 : 1.0 - p1;
      Vector want(amps.size(), Cplx{0.0, 0.0});
      for (Index i = 0; i < sv.dim(); ++i) {
        if (((i & s) != 0) == (outcome == 1)) {
          want[static_cast<std::size_t>(i & ~s)] = amps[static_cast<std::size_t>(i)] / std::sqrt(p);
        }
      }
      Statevector reset = sv;
      reset.reset(q, draw);
      expect_amps_near(reset.amplitudes(), want, tag + " reset");
    }
  }
}

TEST(KernelPositions, LowQubitCircuitIsPoolSizeBitIdentical) {
  // Every family on the four lowest-stride qubits of an 18-qubit state: the
  // sweeps span several fixed chunks and run the lo == 1 and lo == 2 loop
  // shapes, and must be BIT-identical at pools {1, 2, 8} under each tier.
  TierGuard tiers;
  ParallelConfigGuard guard;
  Rng rng(59);
  const int n = 18;
  const Vector amps = random_statevector(Index{1} << n, rng);
  Circuit c(n, 0);
  for (int d = 0; d < 6; ++d) {
    for (int q = n - 4; q < n; ++q) {
      const int r = q == n - 1 ? n - 4 : q + 1;
      c.gate(haar_unitary(2, rng), {q}, "u1q");
      c.rz(q, rng.uniform(0.0, 2.0 * kPi));
      c.t(q);
      c.x(q);
      c.cx(q, r);
      c.cz(r, q);
      c.swap_gate(q, r);
      c.gate(gates::controlled(gates::phase(rng.uniform(0.0, 2.0 * kPi))), {r, q}, "cu1");
      c.gate(random_diagonal(2, rng, /*sparse=*/false), {q, r}, "diag2");
      c.gate(haar_unitary(4, rng), {r, q}, "u2q");
    }
  }
  std::string zpauli(static_cast<std::size_t>(n), 'I');
  zpauli[static_cast<std::size_t>(n - 1)] = 'Z';
  zpauli[static_cast<std::size_t>(n - 3)] = 'Z';

  struct Run {
    Vector amp;
    std::vector<Real> reals;
  };
  const auto run_with = [&](int threshold) {
    Statevector::set_parallel_min_qubits(threshold);
    Statevector sv(n, amps);
    for (const Operation& op : c.ops()) {
      sv.apply(op.matrix(), op.qubits, op.gclass());
    }
    Run res;
    res.reals.push_back(sv.expectation_pauli(zpauli));
    for (int q = n - 4; q < n; ++q) {
      res.reals.push_back(sv.prob_one(q));
    }
    const Statevector copy = Statevector::projected(sv, n - 1, 1);
    res.reals.push_back(sv.project(n - 2, 0));
    res.amp = sv.amplitudes();
    res.amp.insert(res.amp.end(), copy.amplitudes().begin(), copy.amplitudes().end());
    return res;
  };

  for (const SimdTier tier : available_tiers()) {
    force_simd_tier(tier);
    const Run ref = run_with(22);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      ThreadPool pool(workers);
      const qcut::testing::ScopedPool scope(pool);
      const Run got = run_with(n);
      const std::string tag =
          std::string(simd_tier_name(tier)) + " pool " + std::to_string(workers);
      ASSERT_EQ(got.reals.size(), ref.reals.size());
      for (std::size_t i = 0; i < got.reals.size(); ++i) {
        EXPECT_EQ(got.reals[i], ref.reals[i]) << tag << " real " << i;
      }
      ASSERT_EQ(got.amp.size(), ref.amp.size());
      for (std::size_t i = 0; i < got.amp.size(); ++i) {
        ASSERT_EQ(got.amp[i], ref.amp[i]) << tag << " amp " << i;
      }
    }
  }
}

// ---- amplitude buffer recycling ---------------------------------------------

/// Amplitudes compared as bytes, so +0 and -0 differ.
bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(Cplx)) == 0;
}

/// Destroys a random n-qubit state, which leaves its buffer, still holding
/// those amplitudes, on top of the free list; returns the buffer's address.
const Cplx* retire_random_state(int n, Rng& rng) {
  const Statevector retired(n, random_statevector(Index{1} << n, rng));
  return retired.amplitudes().data();
}

/// Takes every buffer the free list retains into a live state, so the list
/// is empty, and has room, whatever earlier tests left in it.
std::vector<Statevector> hold_retained_buffers() {
  std::vector<Statevector> held;
  while (Statevector::recycled_bytes() > 0) {
    held.emplace_back(Statevector::kRecycleMinQubits);
  }
  return held;
}

TEST(BufferRecycling, RecycledStatesAreBitEqualToFreshOnes) {
  // Each way of taking a buffer writes all of it, so a state built in a
  // buffer that still holds another state's amplitudes has the bits of one
  // built in fresh memory: |0...0>, a copy, a copy assignment, and projected()
  // for both outcomes (against copy-then-project in place) and for p = 0.
  TierGuard guard;
  const std::vector<Statevector> held = hold_retained_buffers();
  Rng rng(43);
  const int n = Statevector::kRecycleMinQubits + 1;
  const std::size_t dim = std::size_t{1} << n;
  const Statevector src(n, random_statevector(static_cast<Index>(dim), rng));
  const Statevector ground(n);
  Vector zeros(dim, Cplx{0.0, 0.0});
  Vector basis0 = zeros;
  basis0[0] = Cplx{1.0, 0.0};
  for (const SimdTier tier : available_tiers()) {
    force_simd_tier(tier);
    const std::string tag = simd_tier_name(tier);

    const Cplx* buf = retire_random_state(n, rng);
    const Statevector zero(n);
    ASSERT_EQ(zero.amplitudes().data(), buf) << tag << ": |0...0> took a new buffer";
    EXPECT_TRUE(same_bits(zero.amplitudes(), basis0)) << tag;

    buf = retire_random_state(n, rng);
    const Statevector copy(src);
    ASSERT_EQ(copy.amplitudes().data(), buf) << tag << ": the copy took a new buffer";
    EXPECT_TRUE(same_bits(copy.amplitudes(), src.amplitudes())) << tag;

    Statevector assigned(1);
    buf = retire_random_state(n, rng);
    assigned = src;
    ASSERT_EQ(assigned.amplitudes().data(), buf) << tag << ": the assignment took a new buffer";
    EXPECT_TRUE(same_bits(assigned.amplitudes(), src.amplitudes())) << tag;

    for (const int q : {0, n / 2, n - 1}) {
      for (int outcome = 0; outcome <= 1; ++outcome) {
        Statevector ref = src;
        ref.project(q, outcome);
        buf = retire_random_state(n, rng);
        const Statevector one_pass = Statevector::projected(src, q, outcome);
        ASSERT_EQ(one_pass.amplitudes().data(), buf) << tag << ": projected took a new buffer";
        EXPECT_TRUE(same_bits(one_pass.amplitudes(), ref.amplitudes()))
            << tag << " q=" << q << " outcome=" << outcome;
      }
    }

    buf = retire_random_state(n, rng);
    const Statevector dead = Statevector::projected(ground, 0, 1);
    ASSERT_EQ(dead.amplitudes().data(), buf) << tag << ": projected took a new buffer";
    EXPECT_TRUE(same_bits(dead.amplitudes(), zeros)) << tag << ": p = 0";
  }
}

#if defined(__SANITIZE_ADDRESS__)
#define QCUT_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define QCUT_TEST_ASAN 1
#endif
#endif

TEST(BufferRecyclingDeathTest, ReadThroughARetiredBufferIsReported) {
  // A retained buffer is poisoned, so AddressSanitizer still reports a read
  // through a dead state's pointer instead of letting it see whatever state
  // takes the buffer next. The read goes through Real (std::complex's
  // array-oriented access): gcc 12 does not check a load of a complex
  // value's own parts, freed or poisoned.
#ifndef QCUT_TEST_ASAN
  GTEST_SKIP() << "needs AddressSanitizer";
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<Statevector> held = hold_retained_buffers();
  Rng rng(7);
  const Cplx* dead = retire_random_state(Statevector::kRecycleMinQubits, rng);
  ASSERT_GT(Statevector::recycled_bytes(), 0u);
  const Real* dead_reals = reinterpret_cast<const Real*>(dead);
  EXPECT_DEATH(std::printf("%g\n", dead_reals[2]), "use-after-poison");
#endif
}

TEST(BufferRecycling, RetainedBytesStayBelowTheCap) {
  // More 18-qubit states than the cap holds die one by one: the list keeps
  // buffers until one more would reach the cap, then frees the rest. A wide
  // state that would take the list past the cap is freed too.
  const int n = 18;
  const std::size_t bytes = (std::size_t{1} << n) * sizeof(Cplx);
  {
    std::vector<Statevector> live;
    for (std::size_t i = 0; i < Statevector::kRecycleCapBytes / bytes + 4; ++i) {
      live.emplace_back(n);
    }
    while (!live.empty()) {
      live.pop_back();
      EXPECT_LT(Statevector::recycled_bytes(), Statevector::kRecycleCapBytes);
    }
  }
  const std::size_t full = Statevector::recycled_bytes();
  EXPECT_GE(full + bytes, Statevector::kRecycleCapBytes);
  for (const int wide : {21, 22}) {
    { const Statevector big(wide); }
    EXPECT_EQ(Statevector::recycled_bytes(), full) << wide << " qubits";
  }
}

TEST(BufferRecycling, ConcurrentStatesAcrossAPoolStayExact) {
  // Four workers build, copy, project and destroy 16-qubit states at once,
  // all through the one free list: every result keeps its exact bits.
  ThreadPool pool(4);
  const int n = 16;
  std::vector<int> exact(64, 0);
  pool.parallel_for(0, exact.size(), [&exact, n](std::size_t i) {
    const int q = static_cast<int>(i % static_cast<std::size_t>(n));
    bool ok = true;
    for (int rep = 0; rep < 3; ++rep) {
      Statevector sv(n);
      sv.apply(gates::h(), {q});
      sv.apply(gates::rx(0.1 * static_cast<Real>(i + 1)), {(q + 1) % n});
      const Statevector copy = sv;
      Statevector ref = sv;
      ref.project(q, 1);
      const Statevector one_pass = Statevector::projected(copy, q, 1);
      ok = ok && same_bits(copy.amplitudes(), sv.amplitudes()) &&
           same_bits(one_pass.amplitudes(), ref.amplitudes());
    }
    exact[i] = ok ? 1 : 0;
  });
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(exact[i], 1) << "task " << i;
  }
}

}  // namespace
}  // namespace qcut
