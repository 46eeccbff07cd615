// Gate fusion: the equivalence property (fused circuits produce the same
// amplitudes / branch distributions as unfused ones), the barrier rules
// around measurement and classical control, and pinned rewrite stats.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "qcut/cut/circuit_cutter.hpp"
#include "qcut/cut/fragment.hpp"
#include "qcut/cut/harada_cut.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/sim/executor.hpp"
#include "qcut/sim/fusion.hpp"
#include "qcut/sim/gates.hpp"
#include "qcut/sim/statevector.hpp"

namespace qcut {
namespace {

/// A random circuit over every op family fusion must handle: dense and
/// structured unitaries, measurements (mid-circuit and trailing), resets,
/// and classically controlled gates.
Circuit random_mixed_circuit(int n, int n_cbits, int depth, Rng& rng, bool with_classical) {
  Circuit c(n, n_cbits);
  for (int d = 0; d < depth; ++d) {
    const int q = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n)));
    const int r = n == 1 ? q
                         : (q + 1 +
                            static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n - 1)))) %
                               n;
    const int cb = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n_cbits)));
    switch (rng.uniform_u64(with_classical ? 10 : 7)) {
      case 0:
        c.gate(haar_unitary(2, rng), {q}, "u");
        break;
      case 1:
        c.rz(q, rng.uniform(0.0, 2.0 * kPi));
        break;
      case 2:
        c.t(q);
        break;
      case 3:
        c.h(q);
        break;
      case 4:
        if (n > 1) c.cx(q, r);
        break;
      case 5:
        if (n > 1) c.cz(q, r);
        break;
      case 6:
        if (n > 1) c.gate(haar_unitary(4, rng), {q, r}, "u2");
        break;
      case 7:
        c.measure(q, cb);
        break;
      case 8:
        c.x_if(cb, q);
        break;
      default:
        c.reset(q);
        break;
    }
  }
  return c;
}

/// Collapses a branch set to the joint distribution over classical registers
/// — the order- and pruning-insensitive comparison key.
std::map<std::vector<int>, Real> cbit_distribution(const std::vector<Branch>& branches) {
  std::map<std::vector<int>, Real> dist;
  for (const Branch& b : branches) {
    dist[b.cbits] += b.prob;
  }
  return dist;
}

TEST(Fusion, UnitaryCircuitsKeepTheirAmplitudes) {
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform_u64(5));
    const Circuit c = random_mixed_circuit(n, 1, 30, rng, /*with_classical=*/false);
    FusionStats stats;
    const Circuit fused = fuse_circuit(c, &stats);
    EXPECT_EQ(stats.ops_before, c.size());
    EXPECT_EQ(stats.ops_after, fused.size());
    EXPECT_LE(fused.size(), c.size());

    Statevector a(n);
    for (const Operation& op : c.ops()) {
      a.apply(op.matrix(), op.qubits, op.gclass());
    }
    Statevector b(n);
    for (const Operation& op : fused.ops()) {
      b.apply(op.matrix(), op.qubits, op.gclass());
    }
    for (std::size_t i = 0; i < a.amplitudes().size(); ++i) {
      EXPECT_NEAR(a.amplitudes()[i].real(), b.amplitudes()[i].real(), 1e-12)
          << "trial " << trial << " amp " << i;
      EXPECT_NEAR(a.amplitudes()[i].imag(), b.amplitudes()[i].imag(), 1e-12)
          << "trial " << trial << " amp " << i;
    }
  }
}

TEST(Fusion, BranchDistributionsSurviveMeasureAndControl) {
  // With mid-circuit measures, resets, and conditionals in play, the fused
  // circuit must reproduce the joint classical-register distribution.
  Rng rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform_u64(4));
    const Circuit c = random_mixed_circuit(n, 3, 30, rng, /*with_classical=*/true);
    const Circuit fused = fuse_circuit(c);
    const auto ref = cbit_distribution(run_branches(c));
    const auto got = cbit_distribution(run_branches(fused));
    for (const auto& [cbits, p] : ref) {
      const auto it = got.find(cbits);
      const Real q = it == got.end() ? 0.0 : it->second;
      EXPECT_NEAR(q, p, 1e-12) << "trial " << trial;
    }
    for (const auto& [cbits, q] : got) {
      EXPECT_TRUE(ref.count(cbits) > 0 || q < 1e-12) << "trial " << trial;
    }
  }
}

TEST(Fusion, ComposesSingleQubitRunsAcrossCommutingGates) {
  // t·t on wire 0 fuses even across a cx on OTHER wires; the cx on wire 0
  // itself is a barrier for that wire.
  Circuit c(3, 0);
  c.t(0).cx(1, 2).t(0).h(1);
  FusionStats stats;
  const Circuit fused = fuse_circuit(c, &stats);
  EXPECT_EQ(stats.fused_1q, 1u);  // t*t composed once
  EXPECT_EQ(fused.size(), 3u);    // t*t, cx, h
}

TEST(Fusion, DropsExactIdentityProducts) {
  // x·x multiplies to the exact identity (entries are 0/1, no roundoff) and
  // the composed op is elided entirely.
  Circuit c(1, 0);
  c.x(0).x(0);
  FusionStats stats;
  const Circuit fused = fuse_circuit(c, &stats);
  EXPECT_EQ(fused.size(), 0u);
  EXPECT_EQ(stats.dropped_identity, 1u);
  EXPECT_EQ(stats.fused_1q, 1u);
}

TEST(Fusion, KeepsGlobalPhaseIdentity) {
  // s·s·s·s = e^{i·2π}·I numerically collapses to the exact identity only if
  // the entries round exactly; a product with a residual global phase must
  // be kept. Pin the amplitude-level contract with an explicit phase gate.
  Circuit c(1, 0);
  const Matrix phase = Matrix::diag(Vector{Cplx{-1.0, 0.0}, Cplx{-1.0, 0.0}});
  c.gate(phase, {0}, "gphase").z(0).z(0);
  const Circuit fused = fuse_circuit(c);
  ASSERT_GE(fused.size(), 1u);  // -I survives; z·z may merge into it
  Statevector sv(1);
  for (const Operation& op : fused.ops()) {
    sv.apply(op.matrix(), op.qubits, op.gclass());
  }
  EXPECT_NEAR(sv.amplitudes()[0].real(), -1.0, 1e-12);
}

TEST(Fusion, MeasurementIsABarrier) {
  // h before a measure may not merge with h after it, and the trailing
  // measure run must stay trailing (the evaluator's tail fold depends on it).
  Circuit c(2, 2);
  c.h(0).measure(0, 0).h(0).t(1).measure(0, 1).measure(1, 0);
  const Circuit fused = fuse_circuit(c);
  ASSERT_GE(fused.size(), 4u);
  EXPECT_EQ(fused.ops()[fused.size() - 1].kind, OpKind::kMeasure);
  EXPECT_EQ(fused.ops()[fused.size() - 2].kind, OpKind::kMeasure);
  const auto dist_ref = cbit_distribution(run_branches(c));
  const auto dist_fused = cbit_distribution(run_branches(fused));
  for (const auto& [cbits, p] : dist_ref) {
    EXPECT_NEAR(dist_fused.count(cbits) ? dist_fused.at(cbits) : 0.0, p, 1e-12);
  }
}

TEST(Fusion, CollapsesDiagonalPermutationSandwiches) {
  // cx·cp·cx on one wire pair: a permutation conjugating a diagonal is again
  // diagonal, so the whole sandwich collapses to ONE diagonal sweep.
  Circuit c(2, 0);
  c.cx(0, 1).gate(gates::controlled(gates::phase(0.7)), {0, 1}, "cp").cx(0, 1);
  FusionStats stats;
  const Circuit fused = fuse_circuit(c, &stats);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_EQ(stats.merged_monomial, 2u);
  EXPECT_EQ(fused.ops()[0].gclass().structure, GateStructure::kDiagonal);

  // x(1)·cz(0,1)·x(1): the 1q permutation seeds the run and the cluster
  // grows to the cz's wire pair; the collapse is cz with its phase moved —
  // diag(1, 1, -1, 1).
  Circuit d(2, 0);
  d.x(1).cz(0, 1).x(1);
  FusionStats dstats;
  const Circuit dfused = fuse_circuit(d, &dstats);
  ASSERT_EQ(dfused.size(), 1u);
  EXPECT_EQ(dstats.merged_monomial, 2u);
  const Operation& op = dfused.ops()[0];
  ASSERT_EQ(op.gclass().structure, GateStructure::kDiagonal);
  ASSERT_EQ(op.gclass().diag.size(), 4u);
  EXPECT_EQ(op.gclass().diag[2], (Cplx{-1.0, 0.0}));
  EXPECT_EQ(op.gclass().diag[3], (Cplx{1.0, 0.0}));
}

TEST(Fusion, TwoQubitInvolutionsCancelExactly) {
  // cx·cx composes to the exact identity in monomial form (0/1 entries, no
  // roundoff) and drops out — pass 1 only ever did this for 1q runs.
  Circuit c(2, 0);
  c.cx(0, 1).cx(0, 1);
  FusionStats stats;
  const Circuit fused = fuse_circuit(c, &stats);
  EXPECT_EQ(fused.size(), 0u);
  EXPECT_EQ(stats.merged_monomial, 1u);
  EXPECT_EQ(stats.dropped_identity, 1u);

  // A generic monomial product (diag·perm with nontrivial phases AND moves)
  // must NOT merge: the structured originals are kept as-is.
  Circuit d(2, 0);
  d.cx(0, 1).gate(gates::controlled(gates::phase(0.4)), {0, 1}, "cp");
  FusionStats dstats;
  const Circuit dfused = fuse_circuit(d, &dstats);
  EXPECT_EQ(dfused.size(), 2u);
  EXPECT_EQ(dstats.merged_monomial, 0u);
}

TEST(Fusion, MonomialHeavyCircuitsKeepTheirAmplitudes) {
  // Randomized equivalence pin for the monomial collapse: circuits drawn from
  // the diagonal/permutation families (plus generic 1q gates as barriers)
  // produce sandwich patterns constantly; fused amplitudes must match the
  // unfused ones exactly to float tolerance.
  Rng rng(53);
  std::size_t total_monomial = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform_u64(3));
    Circuit c(n, 0);
    for (int d = 0; d < 40; ++d) {
      const int q = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n)));
      const int r =
          (q + 1 + static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n - 1)))) % n;
      switch (rng.uniform_u64(8)) {
        case 0: c.x(q); break;
        case 1: c.cx(q, r); break;
        case 2: c.swap_gate(q, r); break;
        case 3: c.cz(q, r); break;
        case 4: c.gate(gates::controlled(gates::phase(rng.uniform(0.0, 2.0 * kPi))), {q, r}, "cp"); break;
        case 5: c.t(q); break;
        case 6: c.z(q); break;
        default: c.gate(haar_unitary(2, rng), {q}, "u"); break;
      }
    }
    FusionStats stats;
    const Circuit fused = fuse_circuit(c, &stats);
    EXPECT_LE(fused.size(), c.size());
    total_monomial += stats.merged_monomial;

    Statevector a(n);
    for (const Operation& op : c.ops()) {
      a.apply(op.matrix(), op.qubits, op.gclass());
    }
    Statevector b(n);
    for (const Operation& op : fused.ops()) {
      b.apply(op.matrix(), op.qubits, op.gclass());
    }
    for (std::size_t i = 0; i < a.amplitudes().size(); ++i) {
      EXPECT_NEAR(a.amplitudes()[i].real(), b.amplitudes()[i].real(), 1e-12)
          << "trial " << trial << " amp " << i;
      EXPECT_NEAR(a.amplitudes()[i].imag(), b.amplitudes()[i].imag(), 1e-12)
          << "trial " << trial << " amp " << i;
    }
  }
  EXPECT_GT(total_monomial, 0u);  // the pool must actually exercise the pass
}

TEST(Fusion, MergesDiagonalRunsAcrossWires) {
  // rz(0)·cz(1,2)·rz(0): all diagonal, mutually commuting. The two rz on the
  // same wire fuse already in pass 1; the run collapses to 2 diagonal ops.
  Circuit c(3, 0);
  c.rz(0, 0.3).cz(1, 2).rz(0, 0.4);
  FusionStats stats;
  const Circuit fused = fuse_circuit(c, &stats);
  EXPECT_EQ(fused.size(), 2u);
  // A contiguous same-wire-pair diagonal run is claimed by the monomial
  // collapse.
  Circuit d(2, 0);
  d.cz(0, 1).gate(gates::controlled(gates::phase(0.4)), {0, 1}, "cu1").cz(0, 1);
  FusionStats dstats;
  const Circuit dfused = fuse_circuit(d, &dstats);
  EXPECT_EQ(dfused.size(), 1u);
  EXPECT_EQ(dstats.merged_monomial, 2u);
}

TEST(Fusion, SplitCircuitsFuseWithoutCrossingThePrefixBoundary) {
  // fuse_split_circuits on a real cut: the fused evaluation must match the
  // unfused one, and every op before the remapped cond_suffix_begin must
  // still be read-independent (no conditional reading a cross bit).
  Rng rng(47);
  const HaradaCut harada;
  for (int trial = 0; trial < 3; ++trial) {
    Circuit circ(4, 0);
    circ.h(0).t(0).cx(0, 1).rz(1, 0.3).rz(1, 0.4).cx(2, 3).t(2).t(2).h(3);
    circ.gate(haar_unitary(2, rng), {1}, "u");
    // Cut wire 1 between its rz run and its trailing unitary; shifting the
    // position across trials moves fusable runs across the cut boundary.
    const Qpd qpd = cut_circuit(
        circ, CutPoint{static_cast<std::size_t>(3 + trial), /*qubit=*/1}, harada, "ZZZZ");
    for (const QpdTerm& term : qpd.terms()) {
      FragmentSplit plain = split_term(term);
      FragmentSplit fused = split_term(term);
      fuse_split_circuits(fused);
      bool any_shrank = false;
      for (std::size_t f = 0; f < fused.fragments.size(); ++f) {
        const TermFragment& tf = fused.fragments[f];
        EXPECT_LE(tf.circuit.size(), plain.fragments[f].circuit.size());
        any_shrank = any_shrank || tf.circuit.size() < plain.fragments[f].circuit.size();
        EXPECT_LE(tf.cond_suffix_begin, tf.circuit.size());
        for (std::size_t t = 0; t < tf.cond_suffix_begin; ++t) {
          const Operation& op = tf.circuit.ops()[t];
          if (op.kind == OpKind::kCondUnitary) {
            EXPECT_FALSE(std::binary_search(tf.reads.begin(), tf.reads.end(), op.cbit))
                << "fused prefix op reads a cross bit";
          }
        }
      }
      // fuse_split_circuits fuses whatever the width: these 2-3 qubit
      // fragments must still go through the fused path.
      EXPECT_TRUE(any_shrank) << "trial " << trial << " term " << term.label;
      const Real a = fragment_term_prob_one(plain);
      const Real b = fragment_term_prob_one(fused);
      EXPECT_NEAR(a, b, 1e-12) << "trial " << trial << " term " << term.label;
    }
  }
}

}  // namespace
}  // namespace qcut
