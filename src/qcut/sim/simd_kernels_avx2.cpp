// AVX2+FMA implementation of the block kernels. This translation unit is the
// only one compiled with -mavx2 -mfma (see CMakeLists.txt); the guard below
// keeps the build working when the toolchain targets a non-x86 architecture
// or the flags are unavailable — the accessor then reports the tier absent.
//
// The vector block is two complex values. A stride-lo >= 2 op sweeps each
// block with full vectors; block lengths are then even, because statevector
// chunks start and end on multiples of min(lo, chunk size). A lo == 1 op
// (the least significant index bit) keeps a group's low-bit pair in one
// vector and uses per-lane constants.
#include "qcut/sim/simd_kernels_blocks.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace qcut {

namespace {

// Layout: one __m256d holds two complex doubles [re0, im0, re1, im1].
//
// Multiplying a vector of complex values x by a complex constant c = cr + i*ci
// (cr/ci pre-broadcast):
//   swap  = [im0, re0, im1, re1]
//   cmul  = fmaddsub(cr, x, ci * swap)
//         = [cr*re0 - ci*im0, cr*im0 + ci*re0, ...]   (exactly c * x)
struct BroadcastCplx {
  __m256d re;
  __m256d im;
};

inline __m256d cmul(__m256d x, const BroadcastCplx& c) {
  return _mm256_fmaddsub_pd(c.re, x, _mm256_mul_pd(c.im, _mm256_permute_pd(x, 0x5)));
}

/// The same constant in both lanes.
inline BroadcastCplx bc(Cplx c) {
  return {_mm256_set1_pd(c.real()), _mm256_set1_pd(c.imag())};
}

/// Per-lane constants: c0 for the even amplitude of a pair, c1 for the odd.
inline BroadcastCplx lanes(Cplx c0, Cplx c1) {
  return {_mm256_setr_pd(c0.real(), c0.real(), c1.real(), c1.real()),
          _mm256_setr_pd(c0.imag(), c0.imag(), c1.imag(), c1.imag())};
}

inline __m256d load(const Cplx* a) { return _mm256_loadu_pd(reinterpret_cast<const double*>(a)); }
inline void store(Cplx* a, __m256d x) { _mm256_storeu_pd(reinterpret_cast<double*>(a), x); }

/// Four accumulators in rotation: consecutive vectors go to consecutive
/// accumulators, so the FMA latency chain is four vectors long.
struct Acc4 {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();

  void add(__m256d x, __m256d y) {
    const __m256d t = _mm256_fmadd_pd(x, y, a0);
    a0 = a1;
    a1 = a2;
    a2 = a3;
    a3 = t;
  }
  __m256d total() const { return _mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3)); }
};

/// Fixed lane-combine order: (lane0 + lane2) + (lane1 + lane3).
inline double hsum(__m256d v) {
  const __m128d sum2 = _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
  return _mm_cvtsd_f64(_mm_add_sd(sum2, _mm_unpackhi_pd(sum2, sum2)));
}

/// Swaps re and im within each complex value: [im0, re0, im1, re1].
inline __m256d swap_re_im(__m256d x) { return _mm256_permute_pd(x, 0x5); }

/// [x1, x0] from x = [x0, x1].
inline __m256d swap_amps(__m256d x) { return _mm256_permute2f128_pd(x, x, 0x01); }

/// sum_j c[j] * x[j] over N terms, given xs[j] = swap_re_im(x[j]): the
/// products with the real and with the imaginary coefficient parts
/// accumulate apart (one FMA chain each, in term order) and one addsub
/// combines them.
template <int N>
inline __m256d cdot(const BroadcastCplx* c, const __m256d* x, const __m256d* xs) {
  __m256d re = _mm256_mul_pd(c[0].re, x[0]);
  __m256d im = _mm256_mul_pd(c[0].im, xs[0]);
  for (int j = 1; j < N; ++j) {
    re = _mm256_fmadd_pd(c[j].re, x[j], re);
    im = _mm256_fmadd_pd(c[j].im, xs[j], im);
  }
  return _mm256_addsub_pd(re, im);
}

void apply1_avx2(Cplx* amp, const BlockSweep& b, const Cplx* m) {
  if (b.lo == 1) {
    // One vector x = [a0, a1] holds a group; with xf = [a1, a0],
    // y = [m00, m11] x + [m01, m10] xf.
    const BroadcastCplx c[2] = {lanes(m[0], m[3]), lanes(m[1], m[2])};
    for_pairs(b, [&](Index base, Index len) {
      for (Index p = 0; p < len; ++p) {
        Cplx* a = amp + base + 2 * p;
        const __m256d x = load(a);
        const __m256d xf = swap_amps(x);
        const __m256d in[2] = {x, xf};
        const __m256d ins[2] = {swap_re_im(x), swap_re_im(xf)};
        store(a, cdot<2>(c, in, ins));
      }
    });
    return;
  }
  const BroadcastCplx mm[4] = {bc(m[0]), bc(m[1]), bc(m[2]), bc(m[3])};
  for_blocks(b, [&](Index base, Index len) {
    Cplx* a0 = amp + base;
    Cplx* a1 = a0 + b.lo;
    for (Index i = 0; i < len; i += 2) {
      const __m256d in[2] = {load(a0 + i), load(a1 + i)};
      const __m256d ins[2] = {swap_re_im(in[0]), swap_re_im(in[1])};
      store(a0 + i, cdot<2>(mm, in, ins));
      store(a1 + i, cdot<2>(mm + 2, in, ins));
    }
  });
}

void apply2_avx2(Cplx* amp, const BlockSweep& b, const Cplx* m) {
  if (b.lo == 1) {
    // A group is two vectors, A = [p00, p01] at base and B = [p10, p11] at
    // base + hi. With Af = [p01, p00] and Bf = [p11, p10], the output vector
    // of rows (r0, r1) is [m(r0, 0), m(r1, 1)] A + [m(r0, 1), m(r1, 0)] Af
    // + [m(r0, 2), m(r1, 3)] B + [m(r0, 3), m(r1, 2)] Bf.
    BroadcastCplx c[2][4];
    for (int v = 0; v < 2; ++v) {
      const Cplx* r0 = m + 8 * v;
      const Cplx* r1 = r0 + 4;
      c[v][0] = lanes(r0[0], r1[1]);
      c[v][1] = lanes(r0[1], r1[0]);
      c[v][2] = lanes(r0[2], r1[3]);
      c[v][3] = lanes(r0[3], r1[2]);
    }
    for_pairs(b, [&](Index base, Index len) {
      for (Index p = 0; p < len; ++p) {
        Cplx* pa = amp + base + 2 * p;
        Cplx* pb = pa + b.hi;
        const __m256d xa = load(pa);
        const __m256d xb = load(pb);
        const __m256d in[4] = {xa, swap_amps(xa), xb, swap_amps(xb)};
        const __m256d ins[4] = {swap_re_im(in[0]), swap_re_im(in[1]), swap_re_im(in[2]),
                                swap_re_im(in[3])};
        store(pa, cdot<4>(c[0], in, ins));
        store(pb, cdot<4>(c[1], in, ins));
      }
    });
    return;
  }
  BroadcastCplx mm[16];
  for (int e = 0; e < 16; ++e) {
    mm[e] = bc(m[e]);
  }
  for_blocks(b, [&](Index base, Index len) {
    Cplx* rows[4] = {amp + base, amp + base + b.lo, amp + base + b.hi, amp + base + b.hi + b.lo};
    for (Index i = 0; i < len; i += 2) {
      const __m256d in[4] = {load(rows[0] + i), load(rows[1] + i), load(rows[2] + i),
                             load(rows[3] + i)};
      const __m256d ins[4] = {swap_re_im(in[0]), swap_re_im(in[1]), swap_re_im(in[2]),
                              swap_re_im(in[3])};
      for (int r = 0; r < 4; ++r) {
        store(rows[r] + i, cdot<4>(mm + 4 * r, in, ins));
      }
    }
  });
}

/// lo >= 2 diagonal: one broadcast factor per sub-index, the Subs slices of
/// each block swept together.
template <int Subs>
void diag_blocks(Cplx* amp, const BlockSweep& b, const BroadcastCplx* f) {
  const Index offs[4] = {0, b.lo, b.hi, b.hi + b.lo};
  for_blocks(b, [&](Index base, Index len) {
    for (Index i = base; i < base + len; i += 2) {
      for (int sub = 0; sub < Subs; ++sub) {
        Cplx* a = amp + offs[sub] + i;
        store(a, cmul(load(a), f[sub]));
      }
    }
  });
}

void diag_avx2(Cplx* amp, const BlockSweep& b, const Cplx* d) {
  if (b.lo == 1) {
    // Factor table indexed by the hi bit: per-lane (d[2h], d[2h + 1]).
    const BroadcastCplx f0 = lanes(d[0], d[1]);
    if (b.hi == 0) {
      for_pairs(b, [&](Index base, Index len) {
        for (Index p = 0; p < len; ++p) {
          Cplx* a = amp + base + 2 * p;
          store(a, cmul(load(a), f0));
        }
      });
      return;
    }
    const BroadcastCplx f1 = lanes(d[2], d[3]);
    for_pairs(b, [&](Index base, Index len) {
      for (Index p = 0; p < len; ++p) {
        Cplx* a = amp + base + 2 * p;
        store(a, cmul(load(a), f0));
        store(a + b.hi, cmul(load(a + b.hi), f1));
      }
    });
    return;
  }
  const BroadcastCplx f[4] = {bc(d[0]), bc(d[1]), bc(b.hi != 0 ? d[2] : d[0]),
                              bc(b.hi != 0 ? d[3] : d[1])};
  if (b.hi == 0) {
    diag_blocks<2>(amp, b, f);
  } else {
    diag_blocks<4>(amp, b, f);
  }
}

void phase_avx2(Cplx* amp, const BlockSweep& b, Index off, Cplx phase) {
  if (b.lo == 1) {
    // The phased amplitude shares its vector with its low-bit partner, which
    // is multiplied by exactly 1.
    const Cplx one{1.0, 0.0};
    const BroadcastCplx f = (off & 1) != 0 ? lanes(one, phase) : lanes(phase, one);
    const Index pair_off = off & ~Index{1};
    for_pairs(b, [&](Index base, Index len) {
      for (Index p = 0; p < len; ++p) {
        Cplx* a = amp + base + pair_off + 2 * p;
        store(a, cmul(load(a), f));
      }
    });
    return;
  }
  const BroadcastCplx f = bc(phase);
  for_blocks(b, [&](Index base, Index len) {
    Cplx* a = amp + base + off;
    for (Index i = 0; i < len; i += 2) {
      store(a + i, cmul(load(a + i), f));
    }
  });
}

/// lo == 1 swap between the pair vectors at base + pa and base + pb: the new
/// vectors are the 128-bit lane selections kA and kB of (A, B).
template <int kA, int kB>
void swap_pair_lanes(Cplx* amp, const BlockSweep& b, Index pa, Index pb) {
  for_pairs(b, [&](Index base, Index len) {
    for (Index p = 0; p < len; ++p) {
      Cplx* a = amp + base + pa + 2 * p;
      Cplx* c = amp + base + pb + 2 * p;
      const __m256d xa = load(a);
      const __m256d xc = load(c);
      store(a, _mm256_permute2f128_pd(xa, xc, kA));
      store(c, _mm256_permute2f128_pd(xa, xc, kB));
    }
  });
}

void swap_avx2(Cplx* amp, const BlockSweep& b, Index oa, Index ob) {
  if (b.lo == 1) {
    const Index pa = oa & ~Index{1}, pb = ob & ~Index{1};
    if (pa == pb) {
      // Both amplitudes in one vector (x or a cx target on the low bit).
      for_pairs(b, [&](Index base, Index len) {
        for (Index p = 0; p < len; ++p) {
          Cplx* a = amp + base + pa + 2 * p;
          const __m256d x = load(a);
          store(a, _mm256_permute2f128_pd(x, x, 0x01));
        }
      });
      return;
    }
    // Exchange lane (oa & 1) of A with lane (ob & 1) of B.
    switch (2 * (oa & 1) + (ob & 1)) {
      case 0:
        swap_pair_lanes<0x12, 0x30>(amp, b, pa, pb);
        return;
      case 1:
        swap_pair_lanes<0x13, 0x02>(amp, b, pa, pb);
        return;
      case 2:
        swap_pair_lanes<0x20, 0x31>(amp, b, pa, pb);
        return;
      default:
        swap_pair_lanes<0x30, 0x12>(amp, b, pa, pb);
        return;
    }
  }
  for_blocks(b, [&](Index base, Index len) {
    Cplx* a = amp + base + oa;
    Cplx* c = amp + base + ob;
    for (Index i = 0; i < len; i += 2) {
      const __m256d xa = load(a + i);
      store(a + i, load(c + i));
      store(c + i, xa);
    }
  });
}

double norm2_avx2(const Cplx* amp, const BlockSweep& b, Index off) {
  Acc4 acc;
  if (b.lo == 1) {
    // Whole pairs are squared; the wanted half is picked from the lanes.
    for_pairs(b, [&](Index base, Index len) {
      for (Index p = 0; p < len; ++p) {
        const __m256d x = load(amp + base + 2 * p);
        acc.add(x, x);
      }
    });
    alignas(32) double s[4];
    _mm256_store_pd(s, acc.total());
    return off != 0 ? s[2] + s[3] : s[0] + s[1];
  }
  for_blocks(b, [&](Index base, Index len) {
    const Cplx* a = amp + base + off;
    for (Index i = 0; i < len; i += 2) {
      const __m256d x = load(a + i);
      acc.add(x, x);
    }
  });
  return hsum(acc.total());
}

void project_avx2(Cplx* dst, const Cplx* src, const BlockSweep& b, Index live, Cplx f) {
  const BroadcastCplx fb = bc(f);
  if (b.lo == 1) {
    // The dead amplitude shares the live one's vector: scale, then mask the
    // dead lanes to +0.
    const __m256d keep = _mm256_castsi256_pd(live != 0 ? _mm256_setr_epi64x(0, 0, -1, -1)
                                                        : _mm256_setr_epi64x(-1, -1, 0, 0));
    for_pairs(b, [&](Index base, Index len) {
      for (Index p = 0; p < len; ++p) {
        const Index i = base + 2 * p;
        store(dst + i, _mm256_and_pd(cmul(load(src + i), fb), keep));
      }
    });
    return;
  }
  const Index dead = b.lo - live;
  const __m256d zero = _mm256_setzero_pd();
  for_blocks(b, [&](Index base, Index len) {
    for (Index i = base; i < base + len; i += 2) {
      store(dst + live + i, cmul(load(src + live + i), fb));
      store(dst + dead + i, zero);
    }
  });
}

double zsum_avx2(const Cplx* amp, Index i0, Index i1, Index zmask) {
  // Sign bits per vector: the parity of its first index under the Z bits
  // above bit 0 (constant over each block of max(lowest Z stride, 2)
  // indices), XOR the fixed lane pattern (+, -) when bit 0 is a Z bit.
  const __m256d flip = _mm256_set1_pd(-0.0);
  const __m256d lane_signs =
      (zmask & 1) != 0 ? _mm256_setr_pd(0.0, 0.0, -0.0, -0.0) : _mm256_setzero_pd();
  const Index high = zmask & ~Index{1};
  const Index block = zmask != 0 ? std::max<Index>(zmask & -zmask, 2) : i1 - i0;
  Acc4 acc;
  for (Index base = i0; base < i1; base += block) {
    const __m256d s = __builtin_parityll(static_cast<unsigned long long>(base & high))
                          ? _mm256_xor_pd(lane_signs, flip)
                          : lane_signs;
    const Index end = std::min(i1, base + block);
    for (Index i = base; i < end; i += 2) {
      const __m256d x = load(amp + i);
      acc.add(x, _mm256_xor_pd(x, s));
    }
  }
  return hsum(acc.total());
}

constexpr SimdKernels kAvx2Kernels = {
    &apply1_avx2, &apply2_avx2, &diag_avx2,    &phase_avx2,
    &swap_avx2,   &norm2_avx2,  &project_avx2, &zsum_avx2,
};

}  // namespace

const SimdKernels* simd_kernels_avx2() { return &kAvx2Kernels; }

}  // namespace qcut

#else  // toolchain cannot target AVX2: tier absent

namespace qcut {
const SimdKernels* simd_kernels_avx2() { return nullptr; }
}  // namespace qcut

#endif
