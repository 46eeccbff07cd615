// Block-granular SIMD kernel table for the statevector engine.
//
// Every statevector sweep is one kernel call per fixed sweep chunk. A chunk
// is a range of *group ids* of a one- or two-qubit op: group g stands for the
// 2^k amplitudes that share every index bit outside the op's qubits, and its
// canonical (all op bits zero) index base(g) is g with a zero bit inserted at
// each participating stride, lowest first. Group ids that agree above the
// lowest stride expand to consecutive indices, so a chunk is a sequence of
// *blocks*: contiguous runs of at most `lo` groups. The kernels walk those
// blocks inside their own translation unit — no per-block call through the
// table — and pick the loop shape from the strides:
//   * lo >= the tier's vector block (2 complex values for AVX2): each block
//     is swept with full vectors and broadcast constants;
//   * lo == 1 (the op touches the least significant index bit, which is
//     where a spliced cut wire lands): one vector holds both halves of a
//     group's low bit, and the kernel uses per-lane constants — a factor
//     table indexed by the other bits.
// One table per ISA tier (scalar / AVX2), each in its own translation unit;
// sim/simd_dispatch.cpp selects one at startup. statevector.cpp picks the
// chunks (fixed in group space, independent of the pool size) and stays
// ISA-agnostic; sim/simd_kernels_blocks.hpp holds the block walk they share.
//
// Determinism contract: for a fixed tier, every kernel is a pure function of
// its inputs with a fixed evaluation order. Element-wise kernels compute each
// output amplitude from its own inputs with one fixed expression. The
// reductions (norm2, zsum) visit amplitudes in ascending index order; the
// scalar tier adds each run's sequential sum to one running total, and the
// AVX2 tier feeds the k-th vector of the call into accumulator k mod 4 and
// combines (acc0 + acc1) + (acc2 + acc3), then the lanes in a fixed pattern.
// The order depends only on the chunk and the strides, so results are
// bit-identical across calls and across thread counts. Different tiers may
// round differently (FMA contraction, vector lanes reassociate sums);
// cross-tier agreement is 1e-12-level, not bitwise, and the equivalence tests
// pin exactly that.
#pragma once

#include "qcut/common/types.hpp"

namespace qcut {

/// One chunk of a block-granular sweep: the `count` group ids from `g0` of an
/// op whose participating strides (powers of two) are lo < hi, with hi = 0
/// for a single-stride op. A chunk never splits a block: g0 and count are
/// multiples of min(lo, count), and a chunk shorter than lo lies inside one
/// block. statevector.cpp's power-of-two chunks of power-of-two group counts
/// always satisfy this.
struct BlockSweep {
  Index g0 = 0;
  Index count = 0;
  Index lo = 1;
  Index hi = 0;
};

/// One ISA tier's block kernels. All pointers are non-null in a published
/// table. Below, base(g) is the canonical index of group g and the sub-index
/// of an amplitude is 2 bit(hi) + bit(lo) (just bit(lo) when hi = 0), so the
/// group's amplitudes sit at base + {0, lo, hi, hi + lo}.
struct SimdKernels {
  /// Dense 1q gate (hi = 0): (a0, a1) <- (m[0] a0 + m[1] a1, m[2] a0 + m[3] a1)
  /// with a0 = amp[base], a1 = amp[base + lo].
  void (*apply1)(Cplx* amp, const BlockSweep& b, const Cplx* m);

  /// Dense 2q gate: p_r <- sum_c m[4r + c] p_c over the four sub-indices
  /// (row-major m[16]).
  void (*apply2)(Cplx* amp, const BlockSweep& b, const Cplx* m);

  /// Diagonal gate: amp[base + off(sub)] *= d[sub] for every sub-index
  /// (d has 2 entries when hi = 0, else 4).
  void (*diag)(Cplx* amp, const BlockSweep& b, const Cplx* d);

  /// Sparse phase: amp[base + off] *= phase; the other amplitudes of the group
  /// keep their value.
  void (*phase)(Cplx* amp, const BlockSweep& b, Index off, Cplx phase);

  /// Involution (x, cx, swap, the reset flip): swaps amp[base + oa] and
  /// amp[base + ob], oa != ob.
  void (*swap)(Cplx* amp, const BlockSweep& b, Index oa, Index ob);

  /// Sum of |amp[base + off]|^2 over the chunk's groups (hi = 0).
  double (*norm2)(const Cplx* amp, const BlockSweep& b, Index off);

  /// Projection (hi = 0, live in {0, lo}): dst[base + live] =
  /// src[base + live] * f, and the kernel writes +0 to the dead half
  /// dst[base + (lo - live)], in place (dst == src) or not: a separate dst
  /// may hold any earlier values.
  void (*project)(Cplx* dst, const Cplx* src, const BlockSweep& b, Index live, Cplx f);

  /// Signed norm over the index range [i0, i1): sum of
  /// (-1)^parity(i & zmask) |amp[i]|^2 (zmask = 0: the plain squared norm).
  double (*zsum)(const Cplx* amp, Index i0, Index i1, Index zmask);
};

/// Per-tier table accessors, defined one per translation unit so each can be
/// compiled with its own -m flags. A tier the build does not support (non-x86
/// target, missing compiler flags) returns nullptr and is simply absent from
/// dispatch.
const SimdKernels* simd_kernels_scalar();
const SimdKernels* simd_kernels_avx2();

}  // namespace qcut
