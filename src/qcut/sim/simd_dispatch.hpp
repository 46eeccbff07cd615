// Runtime SIMD tier selection for the statevector run kernels.
//
// The library ships every tier the toolchain could compile (scalar always,
// AVX2 on x86 — in its own translation unit with its own -m flags) and picks
// the widest one the executing CPU supports, once, on first use. The choice
// can be overridden:
//   * environment: QCUT_SIMD=scalar|avx2, read at first dispatch —
//     the debugging/CI knob (forcing a tier the CPU lacks throws);
//   * programmatic: force_simd_tier(), used by the equivalence tests and
//     bench_sim_perf to measure every available tier in one process.
//
// Thread-safety: the active table is a single atomic pointer. force_simd_tier
// is intended for test/bench setup (call it while no simulation is running);
// concurrent readers always see *some* valid table.
#pragma once

#include "qcut/sim/simd_kernels.hpp"

namespace qcut {

enum class SimdTier : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// "scalar" / "avx2".
const char* simd_tier_name(SimdTier tier);

/// True when `tier` was compiled in AND the executing CPU supports it.
/// kScalar is always available.
bool simd_tier_available(SimdTier tier);

/// The tier whose kernels active_kernels() currently returns.
SimdTier active_simd_tier();

/// The active kernel table (never null; defaults to the widest available
/// tier, or the QCUT_SIMD override, resolved on first call).
const SimdKernels& active_kernels();

/// Forces dispatch to `tier`. Throws qcut::Error when the tier is not
/// available on this build/CPU.
void force_simd_tier(SimdTier tier);

}  // namespace qcut
