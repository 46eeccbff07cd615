// Run-granular SIMD kernel table for the statevector engine.
//
// The statevector hot loops all reduce to a handful of operations over
// *contiguous runs* of interleaved complex<double> amplitudes (the layout
// std::vector<std::complex<double>> already has: re, im, re, im, ...).
// This header defines a function-pointer table of exactly those run
// operations; one translation unit per ISA tier (scalar / AVX2)
// provides an implementation, and sim/simd_dispatch.cpp selects one table at
// startup. statevector.cpp enumerates the runs (strides, group bases, chunk
// boundaries) and stays ISA-agnostic.
//
// Determinism contract: for a fixed tier, every kernel is a pure function of
// its inputs with a fixed internal evaluation order — norm2_run accumulates
// its lanes in a fixed pattern — so results are bit-identical across calls
// and across thread counts (chunk boundaries are chosen by the caller,
// independent of the pool size). Different tiers may round differently
// (vector lanes reassociate sums); cross-tier agreement is 1e-12-level, not
// bitwise, and the equivalence tests pin exactly that.
#pragma once

#include "qcut/common/types.hpp"

namespace qcut {

/// One ISA tier's run kernels. All pointers are non-null in a published
/// table. `count` is the run length in complex elements; runs may overlap
/// only in the trivial sense of aliasing the same statevector — the pointer
/// arguments of one call are always mutually disjoint.
struct SimdKernels {
  /// Dense 1q gate on runs: for i in [0, count):
  ///   (a0[i], a1[i]) <- (m[0] a0[i] + m[1] a1[i], m[2] a0[i] + m[3] a1[i]).
  /// a0/a1 are the zero-bit and one-bit halves of each group (a1 = a0 + s).
  void (*apply1_run)(Cplx* a0, Cplx* a1, Index count, const Cplx* m);

  /// Dense 1q gate on stride-1 interleaved pairs (target qubit = least
  /// significant index bit): for p in [0, npairs):
  ///   (a[2p], a[2p+1]) <- (m[0] a[2p] + m[1] a[2p+1], m[2] a[2p] + m[3] a[2p+1]).
  void (*apply1_pairs)(Cplx* a, Index npairs, const Cplx* m);

  /// Dense 2q gate on runs: p00..p11 are the four sub-basis slices of each
  /// group (row-major m[16], sub-index 2*bit(qubits[0]) + bit(qubits[1])):
  ///   p_r[i] <- sum_c m[4r + c] p_c[i].
  void (*apply2_run)(Cplx* p00, Cplx* p01, Cplx* p10, Cplx* p11, Index count, const Cplx* m);

  /// a[i] *= factor for i in [0, count). Covers the diagonal and sparse-phase
  /// sweeps (one call per constant-diagonal run) and renormalization.
  void (*scale_run)(Cplx* a, Index count, Cplx factor);

  /// Stride-1 diagonal 1q gate: a[2p] *= d0, a[2p+1] *= d1 for p in [0, npairs).
  void (*diag1_pairs)(Cplx* a, Index npairs, Cplx d0, Cplx d1);

  /// Sum of |a[i]|^2 over the run, in a fixed per-tier evaluation order.
  double (*norm2_run)(const Cplx* a, Index count);
};

/// Per-tier table accessors, defined one per translation unit so each can be
/// compiled with its own -m flags. A tier the build does not support (non-x86
/// target, missing compiler flags) returns nullptr and is simply absent from
/// dispatch.
const SimdKernels* simd_kernels_scalar();
const SimdKernels* simd_kernels_avx2();

}  // namespace qcut
