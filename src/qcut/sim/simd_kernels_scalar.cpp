// Portable scalar implementation of the block kernels — the correctness
// yardstick every vector tier is tested against, and the fallback on
// machines without AVX2. Compiled with the project's baseline flags only
// (no -m options), so it runs anywhere. Every kernel walks the chunk's runs
// (for_runs: the blocks, or the every-other-amplitude pair runs when lo == 1)
// with the same loop at every stride.
#include <utility>

#include "qcut/sim/simd_kernels_blocks.hpp"

namespace qcut {

namespace {

/// Calls f(base, len, step) for each run of `len` groups whose canonical
/// indices are base, base + step, ...: the blocks (step 1) when lo >= 2, the
/// pair runs of for_pairs (step 2) when lo == 1 — long runs at every stride.
template <typename F>
inline void for_runs(const BlockSweep& b, F&& f) {
  if (b.lo == 1) {
    for_pairs(b, [&f](Index base, Index len) { f(base, len, Index{2}); });
    return;
  }
  for_blocks(b, [&f](Index base, Index len) { f(base, len, Index{1}); });
}

void apply1_scalar(Cplx* amp, const BlockSweep& b, const Cplx* m) {
  const Cplx m00 = m[0], m01 = m[1], m10 = m[2], m11 = m[3];
  for_runs(b, [&](Index base, Index len, Index step) {
    for (Index i = 0; i < len; ++i) {
      Cplx* a0 = amp + base + i * step;
      Cplx* a1 = a0 + b.lo;
      const Cplx x0 = *a0;
      const Cplx x1 = *a1;
      *a0 = m00 * x0 + m01 * x1;
      *a1 = m10 * x0 + m11 * x1;
    }
  });
}

void apply2_scalar(Cplx* amp, const BlockSweep& b, const Cplx* m) {
  for_runs(b, [&](Index base, Index len, Index step) {
    for (Index i = 0; i < len; ++i) {
      Cplx* p00 = amp + base + i * step;
      Cplx* p01 = p00 + b.lo;
      Cplx* p10 = p00 + b.hi;
      Cplx* p11 = p10 + b.lo;
      const Cplx x0 = *p00, x1 = *p01, x2 = *p10, x3 = *p11;
      *p00 = m[0] * x0 + m[1] * x1 + m[2] * x2 + m[3] * x3;
      *p01 = m[4] * x0 + m[5] * x1 + m[6] * x2 + m[7] * x3;
      *p10 = m[8] * x0 + m[9] * x1 + m[10] * x2 + m[11] * x3;
      *p11 = m[12] * x0 + m[13] * x1 + m[14] * x2 + m[15] * x3;
    }
  });
}

void diag_scalar(Cplx* amp, const BlockSweep& b, const Cplx* d) {
  const int subs = b.hi != 0 ? 4 : 2;
  const Index offs[4] = {0, b.lo, b.hi, b.hi + b.lo};
  for_runs(b, [&](Index base, Index len, Index step) {
    for (int sub = 0; sub < subs; ++sub) {
      Cplx* a = amp + base + offs[sub];
      for (Index i = 0; i < len; ++i) {
        a[i * step] *= d[sub];
      }
    }
  });
}

void phase_scalar(Cplx* amp, const BlockSweep& b, Index off, Cplx phase) {
  for_runs(b, [&](Index base, Index len, Index step) {
    Cplx* a = amp + base + off;
    for (Index i = 0; i < len; ++i) {
      a[i * step] *= phase;
    }
  });
}

void swap_scalar(Cplx* amp, const BlockSweep& b, Index oa, Index ob) {
  for_runs(b, [&](Index base, Index len, Index step) {
    for (Index i = 0; i < len; ++i) {
      std::swap(amp[base + oa + i * step], amp[base + ob + i * step]);
    }
  });
}

double norm2_scalar(const Cplx* amp, const BlockSweep& b, Index off) {
  double acc = 0.0;
  for_runs(b, [&](Index base, Index len, Index step) {
    const Cplx* a = amp + base + off;
    double run = 0.0;
    for (Index i = 0; i < len; ++i) {
      run += norm2(a[i * step]);
    }
    acc += run;
  });
  return acc;
}

void project_scalar(Cplx* dst, const Cplx* src, const BlockSweep& b, Index live, Cplx f) {
  const Index dead = b.lo - live;
  for_runs(b, [&](Index base, Index len, Index step) {
    for (Index i = base; i < base + len * step; i += step) {
      dst[i + live] = src[i + live] * f;
      dst[i + dead] = Cplx{0.0, 0.0};
    }
  });
}

double zsum_scalar(const Cplx* amp, Index i0, Index i1, Index zmask) {
  // The sign is constant over each aligned block of `lo` indices (lo = the
  // lowest Z stride): one sequential block sum, then one signed add.
  const Index lo = zmask != 0 ? (zmask & -zmask) : i1 - i0;
  double acc = 0.0;
  for (Index base = i0; base < i1; base += lo) {
    const Index end = std::min(i1, base + lo);
    double block = 0.0;
    for (Index i = base; i < end; ++i) {
      block += norm2(amp[i]);
    }
    acc += __builtin_parityll(static_cast<unsigned long long>(base & zmask)) ? -block : block;
  }
  return acc;
}

constexpr SimdKernels kScalarKernels = {
    &apply1_scalar, &apply2_scalar,  &diag_scalar,    &phase_scalar,
    &swap_scalar,   &norm2_scalar,   &project_scalar, &zsum_scalar,
};

}  // namespace

const SimdKernels* simd_kernels_scalar() { return &kScalarKernels; }

}  // namespace qcut
