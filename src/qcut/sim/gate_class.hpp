// Gate-structure classification for kernel dispatch.
//
// A k-qubit unitary is a dense 2^k x 2^k matrix to the generic apply path,
// but most gates in real workloads are far more structured:
//  * diagonal gates (z, s, t, rz, u1/phase, cz, cu1/cp) only scale each
//    amplitude — no gather, no cross-amplitude arithmetic. The QFT family is
//    dominated by these. Most are "sparse phases": every diagonal entry is 1
//    except one, so only a 2^{n-k} slice of the state is touched at all.
//  * permutation gates (x, cx, swap) only move amplitudes — no complex
//    arithmetic whatsoever, and for the ubiquitous involutions the move is a
//    plain swap.
//
// classify_gate inspects the matrix entries with *exact* zero/one tests, so
// dispatching on the classification never changes what arithmetic runs on
// nonzero entries — the specialized kernels produce the same amplitudes the
// dense multiply would (up to the sign of floating-point zeros).
//
// Classification is computed once per Operation when the circuit is built
// (Circuit::gate / gate_if) and rides along through append/remap, so the hot
// simulation paths (run_branches, run_shot, fragment enumeration) dispatch on
// a precomputed tag instead of re-inspecting matrices per application.
#pragma once

#include <cstdint>
#include <vector>

#include "qcut/common/small_vector.hpp"
#include "qcut/linalg/matrix.hpp"

namespace qcut {

enum class GateStructure : std::uint8_t {
  kGeneric = 0,   ///< dense: full 2^k x 2^k sub-matrix multiply
  kDiagonal,      ///< diagonal matrix: amplitude-wise multiply, no gather
  kPermutation,   ///< 0/1 permutation matrix: amplitude moves, no arithmetic
};

struct GateClass {
  GateStructure structure = GateStructure::kGeneric;
  /// Sub-dimension (2^k) of the matrix the classification was computed from,
  /// for kDiagonal / kPermutation — the kernels' dispatch-consistency check.
  Index dim = 0;

  // -- kDiagonal --------------------------------------------------------------
  /// The 2^k diagonal entries.
  Vector diag;
  /// When >= 0: every diagonal entry except this sub-index equals exactly 1
  /// ("sparse phase", e.g. cu1/cp/t) — kernels touch only the matching
  /// 2^{n-k} amplitude slice. The identity classifies as a sparse phase whose
  /// phase entry is itself 1 (kernels skip it entirely).
  Index phase_index = -1;

  // -- kPermutation -----------------------------------------------------------
  /// Nontrivial cycles (length >= 2) of the permutation |s> -> |r> with
  /// u(r, s) = 1, precomputed so the kernel rotates amplitudes in place
  /// without revisiting fixed points. Flattened: each cycle is its length
  /// followed by its members, so a two-qubit permutation's cycles stay in
  /// place. Involutions (x, cx, swap) yield length-2 cycles — plain swaps;
  /// cx is {2, 2, 3}. The full image is not retained: cycles are all the
  /// kernel needs, and every gate op's payload carries this struct.
  SmallVector<Index, 8> cycles;
};

/// Classifies `u` by exact entry inspection. Non-square or empty matrices
/// classify as kGeneric (the caller's dimension checks will reject them).
GateClass classify_gate(const Matrix& u);

}  // namespace qcut
