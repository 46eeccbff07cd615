// Block walking for the kernel tiers and statevector.cpp: how a chunk of
// group ids (see simd_kernels.hpp) expands into contiguous index blocks.
//
// Internal header. Everything here has internal linkage (an unnamed
// namespace): the tier translation units are compiled with different -m
// flags, and a shared inline definition would let the linker keep the AVX2
// copy for the scalar tier.
#pragma once

#include <algorithm>

#include "qcut/sim/simd_kernels.hpp"

namespace qcut {
namespace {

/// Inserts a zero bit at the position of `stride` (a power of two): bits at or
/// above the position shift up by one, bits below stay. Repeated over an op's
/// strides in ascending order, this expands a group id into its canonical
/// basis index.
inline Index insert_zero(Index g, Index stride) {
  return ((g & ~(stride - 1)) << 1) | (g & (stride - 1));
}

/// Calls f(base, len) for each block of the chunk, in ascending order: `len`
/// consecutive groups whose canonical indices are base, base + 1, ... Every
/// block has the same length min(lo, count): a chunk holds whole blocks, or
/// lies inside one (see BlockSweep). Inside one hi-run (hi / 2 consecutive
/// groups; the whole chunk when hi = 0) the block bases advance by 2 lo, so
/// only each hi-run's first base is expanded bit by bit.
template <typename F>
inline void for_blocks(const BlockSweep& b, F&& f) {
  const Index len = std::min(b.lo, b.count);
  const Index run = b.hi != 0 ? std::min(b.hi >> 1, b.count) : b.count;
  const Index g1 = b.g0 + b.count;
  for (Index g = b.g0; g < g1; g += run) {
    Index base = insert_zero(g, b.lo);
    if (b.hi != 0) {
      base = insert_zero(base, b.hi);
    }
    for (Index j = 0; j < run; j += len) {
      f(base + 2 * j, len);
    }
  }
}

/// For lo == 1: calls f(base, len) for each run of `len` groups whose
/// canonical indices are base, base + 2, base + 4, ... — each group's
/// (base, base + 1) pair is one two-amplitude vector block.
template <typename F>
inline void for_pairs(const BlockSweep& b, F&& f) {
  if (b.hi == 0) {
    f(2 * b.g0, b.count);
    return;
  }
  for_blocks(BlockSweep{b.g0, b.count, b.hi >> 1, 0},
             [&f](Index base, Index len) { f(2 * base, len); });
}

}  // namespace
}  // namespace qcut
