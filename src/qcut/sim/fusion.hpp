// Gate fusion over the Circuit IR.
//
// Three rewrite passes that reduce the number of full-state sweeps a circuit
// costs, without changing its semantics:
//
//  1. Single-qubit run composition: maximal runs of 1q unitaries on the same
//     wire compose into one 2x2 product (applied-last times applied-first).
//     A pending 1q gate may drift *later* in the op list — past multi-qubit
//     unitaries on other wires, with which it commutes exactly — but never
//     earlier. Measure / reset / conditional / initialize ops flush every
//     pending gate first: they are branch points, and applying unitaries
//     before the branch point both preserves the trailing-measure fold and
//     avoids re-applying them per branch.
//  2. Monomial-run collapse: a contiguous run of diagonal / permutation
//     gates on one small wire cluster composes exactly in monomial column
//     form (one nonzero per column). The run is rewritten whenever the
//     product classifies better than its pieces — x·diag·x is diagonal
//     again, cx·cx is the identity and drops out — merges ACROSS the
//     diagonal/permutation boundary that the diagonal-run pass cannot see.
//     A generic monomial product keeps the original structured ops.
//  3. Diagonal-run merge: within a consecutive run of unconditioned diagonal
//     unitaries (all of which commute, regardless of wires), the ops sharing
//     one qubit list merge into a single diagonal sweep (elementwise product
//     of their diagonals), emitted in first-occurrence order.
//
// Fused ops re-enter the IR through Circuit::gate, so they are re-classified
// (GateClass) and the statevector engine dispatches its specialized kernels
// on the *fused* structure — e.g. rz·rz stays a diagonal sweep, x·x drops
// out entirely. Only gates that are exactly the identity are dropped; a
// global-phase identity is kept (amplitude-level equivalence is the
// contract, not just probability-level).
//
// Equivalence: fused and unfused circuits agree on all branch probabilities,
// classical bits, and amplitudes to ~1e-12 (matrix products round at the
// usual float level). The fusion-equivalence property test pins this.
//
// When to fuse: the pass costs time linear in the op count, while a sweep it
// saves costs time linear in 2^width. So fusion pays only on wide circuits,
// and the exact-probability paths apply one rule, fusion_pays(width): the
// fragment backend per fragment, the spliced term_prob_one per term circuit.
// fuse_range / fuse_circuit themselves always fuse.
#pragma once

#include <cstddef>

#include "qcut/sim/circuit.hpp"

namespace qcut {

struct FusionStats {
  std::size_t ops_before = 0;        ///< ops seen across fused ranges
  std::size_t ops_after = 0;         ///< ops emitted
  std::size_t fused_1q = 0;          ///< 1q unitaries absorbed into a run product
  std::size_t merged_diagonal = 0;   ///< diagonal ops absorbed into a merged sweep
  std::size_t merged_monomial = 0;   ///< diag/perm ops absorbed into a monomial collapse
  std::size_t dropped_identity = 0;  ///< exact-identity ops elided

  FusionStats& operator+=(const FusionStats& other) {
    ops_before += other.ops_before;
    ops_after += other.ops_after;
    fused_1q += other.fused_1q;
    merged_diagonal += other.merged_diagonal;
    merged_monomial += other.merged_monomial;
    dropped_identity += other.dropped_identity;
    return *this;
  }
};

/// Narrowest circuit, in qubits, that the exact-probability paths fuse.
/// bench_sim_perf's fusion_crossover row (sim_perf.json) times, per QPD term
/// and serially, the fuse pass plus the fused evaluation against the unfused
/// evaluation, on planned GHZ-chain and brickwork splits. On a 4-vCPU Xeon
/// (AVX2), over three runs, that ratio is 3.8-6.0x at fragment widths 3-6,
/// 2.6-3.5x at 8 and 1.1-1.3x at 12. At 14 it is 1.01-1.13x (GHZ) and
/// 0.91-0.99x (brickwork), at 16 1.00-1.12x and 0.93-1.01x: 14 is the
/// narrowest width at which fusion pays on either shape.
inline constexpr int kMinFusionWidth = 14;

/// The width rule: true when a circuit of `n_qubits` wires is wide enough
/// for fusion to cost less than the sweeps it saves.
constexpr bool fusion_pays(int n_qubits) noexcept { return n_qubits >= kMinFusionWidth; }

/// Fuses the op range [begin, end) of `c` into a fresh circuit over the same
/// registers. Exposed (rather than whole-circuit only) for callers that must
/// respect an internal boundary — the fragment evaluator's unconditioned
/// prefix / conditional suffix split fuses each side separately so no op
/// crosses the prefix-caching boundary.
Circuit fuse_range(const Circuit& c, std::size_t begin, std::size_t end,
                   FusionStats* stats = nullptr);

/// Fuses the whole circuit.
Circuit fuse_circuit(const Circuit& c, FusionStats* stats = nullptr);

}  // namespace qcut
