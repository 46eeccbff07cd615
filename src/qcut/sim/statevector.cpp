#include "qcut/sim/statevector.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define QCUT_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define QCUT_ASAN 1
#endif
#endif
#ifdef QCUT_ASAN
#include <sanitizer/asan_interface.h>
#endif

#include "qcut/common/threadpool.hpp"
#include "qcut/linalg/pauli.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/sim/simd_dispatch.hpp"
#include "qcut/sim/simd_kernels_blocks.hpp"

namespace qcut {

namespace {

// Width must be validated BEFORE the 2^n amplitude vector is allocated: with
// the Circuit IR now wider than the engine cap, a check placed after the
// allocation would surface as an OOM kill / bad_alloc instead of the Error.
std::size_t checked_dim(int n_qubits) {
  QCUT_CHECK(n_qubits >= 1 && n_qubits <= Statevector::kMaxQubits,
             "Statevector: unsupported qubit count");
  return std::size_t{1} << n_qubits;
}

// ---- amplitude buffer recycling ---------------------------------------------
//
// One LIFO stack per power-of-two class, a buffer's class being
// floor(log2(capacity)). A take scans upward from the state's own class, so
// it gets the smallest free buffer that fits. Freed 2^12..2^21-amplitude
// vectors would otherwise go back to the kernel (glibc's mmap threshold and
// heap trim), and the next state would fault the same pages in again.
// Narrower states stay on malloc: were they recycled too, a small state
// could pin a large buffer (a take serves upward), and on narrow circuits
// with many live branch states the list grew to its cap.
// Under AddressSanitizer a retained buffer is poisoned, so a read through a
// dead state's pointer is still reported rather than seeing a live state.

/// Marks a retained buffer's bytes unreadable (poison) or readable again.
void set_poisoned(const Vector& v, bool poisoned) noexcept {
#ifdef QCUT_ASAN
  if (poisoned) {
    ASAN_POISON_MEMORY_REGION(v.data(), v.capacity() * sizeof(Cplx));
  } else {
    ASAN_UNPOISON_MEMORY_REGION(v.data(), v.capacity() * sizeof(Cplx));
  }
#else
  (void)v;
  (void)poisoned;
#endif
}

struct BufferList {
  std::mutex mutex;
  std::vector<Vector> free[Statevector::kMaxQubits + 1];
  std::size_t bytes = 0;
};

/// Never destroyed: a Statevector may outlive any static object.
BufferList& buffer_list() {
  static BufferList* const list = new BufferList;
  return *list;
}

/// A retained buffer with room for 2^n_qubits amplitudes, holding an earlier
/// state's values, or an empty vector when none is free or the state is too
/// narrow to recycle. n_qubits must already be validated.
Vector take_buffer(int n_qubits) {
  if (n_qubits < Statevector::kRecycleMinQubits) {
    return {};
  }
  BufferList& list = buffer_list();
  const std::lock_guard<std::mutex> lock(list.mutex);
  for (int c = n_qubits; c <= Statevector::kMaxQubits; ++c) {
    std::vector<Vector>& stack = list.free[c];
    if (!stack.empty()) {
      Vector v = std::move(stack.back());
      stack.pop_back();
      list.bytes -= v.capacity() * sizeof(Cplx);
      set_poisoned(v, false);
      return v;
    }
  }
  return {};
}

/// Moves `v` into the list when it is large enough and fits under the cap;
/// otherwise leaves it for its owner to free, outside the lock.
void give_buffer(Vector& v) noexcept {
  const std::size_t capacity = v.capacity();
  const std::size_t bytes = capacity * sizeof(Cplx);
  if (capacity < (std::size_t{1} << Statevector::kRecycleMinQubits) ||
      bytes >= Statevector::kRecycleCapBytes) {
    return;
  }
  BufferList& list = buffer_list();
  const std::lock_guard<std::mutex> lock(list.mutex);
  if (list.bytes + bytes >= Statevector::kRecycleCapBytes) {
    return;
  }
  const int c = 63 - __builtin_clzll(static_cast<unsigned long long>(capacity));
  try {
    list.free[c].push_back(std::move(v));
    list.bytes += bytes;
    set_poisoned(list.free[c].back(), true);
  } catch (const std::bad_alloc&) {
    // The stack could not grow; v is untouched and its owner frees it.
  }
}

// ---- threading policy -------------------------------------------------------
//
// Sweeps are chunked in *group space* with a fixed chunk size, and each chunk
// is one call of a block-granular kernel (sim/simd_kernels.hpp) whatever the
// op's qubit positions: the kernel walks the chunk's contiguous blocks itself.
// The chunk boundaries depend only on the sweep's group count — never on the
// pool, its size, or whether the chunks actually run concurrently — each
// kernel's evaluation order depends only on its chunk and the op's strides,
// and reductions sum per-chunk partials in chunk index order. So every sweep
// is bit-identical for any pool configuration; the pool only decides
// wall-clock, not values.

std::atomic<int> g_parallel_min_qubits{22};

constexpr Index kChunkGroups = Index{1} << 16;

/// Runs body(g0, g1) over the fixed chunks of [0, groups): on request_pool()
/// from the threshold width up (whose parallel_for runs inline on one of its
/// own workers), else inline, which keeps the fragment hot path
/// allocation-free. The global pool is constructed lazily, and only once a
/// >= threshold state is actually swept.
template <typename Body>
void sweep(Index groups, int n_qubits, const Body& body) {
  if (groups <= kChunkGroups) {
    body(Index{0}, groups);
    return;
  }
  if (n_qubits >= g_parallel_min_qubits.load(std::memory_order_relaxed)) {
    request_pool().parallel_for_chunked(
        0, static_cast<std::size_t>(groups), static_cast<std::size_t>(kChunkGroups),
        [&body](std::size_t lo, std::size_t hi) {
          body(static_cast<Index>(lo), static_cast<Index>(hi));
        });
    return;
  }
  for (Index g = 0; g < groups; g += kChunkGroups) {
    body(g, std::min(groups, g + kChunkGroups));
  }
}

/// Reduction over the same fixed chunks: body(g0, g1) returns its chunk's
/// partial sum; partials are combined in chunk index order regardless of
/// which thread produced them.
template <typename Body>
Real sweep_reduce(Index groups, int n_qubits, const Body& body) {
  if (groups <= kChunkGroups) {
    return body(Index{0}, groups);
  }
  std::vector<Real> partial(static_cast<std::size_t>((groups + kChunkGroups - 1) / kChunkGroups),
                            0.0);
  sweep(groups, n_qubits, [&](Index g0, Index g1) {
    partial[static_cast<std::size_t>(g0 / kChunkGroups)] = body(g0, g1);
  });
  Real acc = 0.0;
  for (const Real p : partial) {
    acc += p;
  }
  return acc;
}

/// Strides of an op's qubits, operand order or sorted. Four in place: no
/// k <= 2 gate allocates.
using StrideList = SmallVector<Index, 4>;

/// Strides of `qubits` (big-endian: qubit 0 is the most significant bit).
StrideList strides_of(const QubitList& qubits, int n_qubits) {
  StrideList strides;
  for (const int q : qubits) {
    strides.push_back(Index{1} << (n_qubits - 1 - q));
  }
  return strides;
}

StrideList sorted_strides(StrideList strides) {
  std::sort(strides.begin(), strides.end());
  return strides;
}

/// Offset of sub-index `sub` (qubits[0] is its high bit) from a group's
/// canonical index.
Index sub_offset(const StrideList& strides, Index sub) {
  const int k = static_cast<int>(strides.size());
  Index off = 0;
  for (int j = 0; j < k; ++j) {
    if ((sub >> (k - 1 - j)) & 1) {
      off |= strides[static_cast<std::size_t>(j)];
    }
  }
  return off;
}

/// Canonical index of group g: a zero bit inserted at every sorted stride.
Index canonical(Index g, const StrideList& sorted) {
  for (const Index s : sorted) {
    g = insert_zero(g, s);
  }
  return g;
}

/// The kernel geometry of a one- or two-qubit op. The kernels' sub-index is
/// 2 bit(hi) + bit(lo); when qubits[0] holds the lower stride the pair is
/// `reversed` and the two sub-index bits swap.
struct KernelGeometry {
  Index lo;
  Index hi;
  bool reversed;

  /// Operand-order sub-index of kernel sub-index `sub` (and vice versa).
  Index sub(Index s) const { return reversed ? ((s & 1) << 1) | (s >> 1) : s; }
  BlockSweep chunk(Index g0, Index g1) const { return BlockSweep{g0, g1 - g0, lo, hi}; }
};

KernelGeometry kernel_geometry(const StrideList& strides) {
  if (strides.size() == 1) {
    return {strides[0], 0, false};
  }
  return strides[0] > strides[1] ? KernelGeometry{strides[1], strides[0], false}
                                 : KernelGeometry{strides[0], strides[1], true};
}

}  // namespace

void Statevector::set_parallel_min_qubits(int min_parallel_qubits) {
  QCUT_CHECK(min_parallel_qubits >= 1, "set_parallel_min_qubits: threshold must be >= 1");
  g_parallel_min_qubits.store(min_parallel_qubits, std::memory_order_relaxed);
}

Statevector::Statevector(int n_qubits) : n_qubits_(n_qubits) {
  const std::size_t dim = checked_dim(n_qubits);
  amp_ = take_buffer(n_qubits);
  amp_.assign(dim, Cplx{0.0, 0.0});
  amp_[0] = Cplx{1.0, 0.0};
}

Statevector::Statevector(int n_qubits, Vector amplitudes)
    : n_qubits_(n_qubits), amp_(std::move(amplitudes)) {
  (void)checked_dim(n_qubits);
  QCUT_CHECK(amp_.size() == (std::size_t{1} << n_qubits),
             "Statevector: amplitude count mismatch");
  QCUT_CHECK(approx_eq(vec_norm(amp_), 1.0, 1e-8), "Statevector: state must be normalized");
}

Statevector::Statevector(const Statevector& other)
    : n_qubits_(other.n_qubits_), amp_(take_buffer(other.n_qubits_)) {
  amp_.assign(other.amp_.begin(), other.amp_.end());
}

Statevector& Statevector::operator=(const Statevector& other) {
  if (this != &other) {
    *this = Statevector(other);
  }
  return *this;
}

Statevector& Statevector::operator=(Statevector&& other) noexcept {
  if (this != &other) {
    give_buffer(amp_);
    amp_ = std::move(other.amp_);
    n_qubits_ = other.n_qubits_;
  }
  return *this;
}

Statevector::~Statevector() { give_buffer(amp_); }

std::size_t Statevector::recycled_bytes() {
  BufferList& list = buffer_list();
  const std::lock_guard<std::mutex> lock(list.mutex);
  return list.bytes;
}

void Statevector::apply(const Matrix& u, const QubitList& qubits) {
  apply(u, qubits, classify_gate(u));
}

void Statevector::apply(const Matrix& u, const QubitList& qubits, const GateClass& cls) {
  const int k = static_cast<int>(qubits.size());
  const Index subdim = Index{1} << k;
  QCUT_CHECK(u.rows() == subdim && u.cols() == subdim,
             "Statevector::apply: matrix/qubit-count mismatch");
  for (int q : qubits) {
    QCUT_CHECK(q >= 0 && q < n_qubits_, "Statevector::apply: qubit out of range");
  }
  for (std::size_t a = 0; a < qubits.size(); ++a) {
    for (std::size_t b = a + 1; b < qubits.size(); ++b) {
      QCUT_CHECK(qubits[a] != qubits[b], "Statevector::apply: duplicate qubit");
    }
  }

  switch (cls.structure) {
    case GateStructure::kDiagonal:
      QCUT_CHECK(cls.dim == subdim && static_cast<Index>(cls.diag.size()) == subdim,
                 "Statevector::apply: classification/matrix mismatch");
      obs::count(cls.phase_index >= 0 ? obs::Counter::kDispatchSparsePhase
                                      : obs::Counter::kDispatchDiagonal);
      apply_diagonal(cls, qubits);
      return;
    case GateStructure::kPermutation:
      QCUT_CHECK(cls.dim == subdim, "Statevector::apply: classification/matrix mismatch");
      obs::count(obs::Counter::kDispatchPermutation);
      apply_permutation(cls, qubits);
      return;
    case GateStructure::kGeneric:
      obs::count(k == 1   ? obs::Counter::kDispatchDense1q
                 : k == 2 ? obs::Counter::kDispatchDense2q
                          : obs::Counter::kDispatchGeneric);
      break;
  }

  const Index dim_ = dim();
  Cplx* amp = amp_.data();
  const StrideList strides = strides_of(qubits, n_qubits_);

  if (k == 1 || k == 2) {
    // Dense one- and two-qubit kernels, the matrix laid out in the kernels'
    // sub-index order.
    const SimdKernels& kr = active_kernels();
    const KernelGeometry geo = kernel_geometry(strides);
    Cplx m[16];
    for (Index r = 0; r < subdim; ++r) {
      for (Index c = 0; c < subdim; ++c) {
        m[subdim * r + c] = u(geo.sub(r), geo.sub(c));
      }
    }
    const auto kernel = k == 1 ? kr.apply1 : kr.apply2;
    sweep(dim_ >> k, n_qubits_,
          [&](Index g0, Index g1) { kernel(amp, geo.chunk(g0, g1), m); });
    return;
  }

  // General k-qubit path: gather/scatter over the 2^k amplitudes of each row
  // group, enumerating the canonical representatives directly. Groups write
  // disjoint slots, so the sweep chunks distribute safely.
  const StrideList sorted = sorted_strides(strides);
  sweep(dim_ >> k, n_qubits_, [&](Index g0, Index g1) {
    std::vector<Cplx> scratch(static_cast<std::size_t>(subdim));
    for (Index g = g0; g < g1; ++g) {
      const Index base = canonical(g, sorted);
      for (Index sub = 0; sub < subdim; ++sub) {
        scratch[static_cast<std::size_t>(sub)] = amp[base + sub_offset(strides, sub)];
      }
      for (Index row = 0; row < subdim; ++row) {
        Cplx acc{0.0, 0.0};
        for (Index col = 0; col < subdim; ++col) {
          acc += u(row, col) * scratch[static_cast<std::size_t>(col)];
        }
        amp[base + sub_offset(strides, row)] = acc;
      }
    }
  });
}

void Statevector::apply_diagonal(const GateClass& cls, const QubitList& qubits) {
  const int k = static_cast<int>(qubits.size());
  const Index dim_ = dim();
  Cplx* amp = amp_.data();
  const StrideList strides = strides_of(qubits, n_qubits_);

  if (cls.phase_index >= 0) {
    // Sparse phase: every diagonal entry but one is exactly 1 — only the
    // matching 2^{n-k} amplitude slice changes (a quarter of the state for
    // the cu1/cp gates that dominate QFT circuits).
    const Cplx phase = cls.diag[static_cast<std::size_t>(cls.phase_index)];
    if (phase == Cplx{1.0, 0.0}) {
      return;  // identity
    }
    const Index offset = sub_offset(strides, cls.phase_index);
    if (k == 1 || k == 2) {
      const SimdKernels& kr = active_kernels();
      const KernelGeometry geo = kernel_geometry(strides);
      sweep(dim_ >> k, n_qubits_,
            [&](Index g0, Index g1) { kr.phase(amp, geo.chunk(g0, g1), offset, phase); });
      return;
    }
    const StrideList sorted = sorted_strides(strides);
    sweep(dim_ >> k, n_qubits_, [&](Index g0, Index g1) {
      for (Index g = g0; g < g1; ++g) {
        amp[canonical(g, sorted) + offset] *= phase;
      }
    });
    return;
  }

  // Dense diagonal: one multiply per amplitude, no gather.
  if (k == 1 || k == 2) {
    const SimdKernels& kr = active_kernels();
    const KernelGeometry geo = kernel_geometry(strides);
    Cplx d[4];
    for (Index sub = 0; sub < (Index{1} << k); ++sub) {
      d[sub] = cls.diag[static_cast<std::size_t>(geo.sub(sub))];
    }
    sweep(dim_ >> k, n_qubits_,
          [&](Index g0, Index g1) { kr.diag(amp, geo.chunk(g0, g1), d); });
    return;
  }
  sweep(dim_, n_qubits_, [&](Index i0, Index i1) {
    for (Index i = i0; i < i1; ++i) {
      Index sub = 0;
      for (int j = 0; j < k; ++j) {
        if (i & strides[static_cast<std::size_t>(j)]) {
          sub |= Index{1} << (k - 1 - j);
        }
      }
      amp[i] *= cls.diag[static_cast<std::size_t>(sub)];
    }
  });
}

void Statevector::apply_permutation(const GateClass& cls, const QubitList& qubits) {
  if (cls.cycles.empty()) {
    return;  // identity permutation
  }
  const int k = static_cast<int>(qubits.size());
  const Index dim_ = dim();
  const Index subdim = Index{1} << k;
  Cplx* amp = amp_.data();
  const StrideList strides = strides_of(qubits, n_qubits_);

  if ((k == 1 || k == 2) && cls.cycles.size() == 3 && cls.cycles[0] == 2) {
    // The ubiquitous involution shape (x, cx, swap): one pairwise swap per
    // group, touching only the cycle's slice of the state.
    const SimdKernels& kr = active_kernels();
    const KernelGeometry geo = kernel_geometry(strides);
    const Index oa = sub_offset(strides, cls.cycles[1]);
    const Index ob = sub_offset(strides, cls.cycles[2]);
    sweep(dim_ >> k, n_qubits_,
          [&](Index g0, Index g1) { kr.swap(amp, geo.chunk(g0, g1), oa, ob); });
    return;
  }

  SmallVector<Index, 4> offs;
  for (Index sub = 0; sub < subdim; ++sub) {
    offs.push_back(sub_offset(strides, sub));
  }
  const StrideList sorted = sorted_strides(strides);
  sweep(dim_ >> k, n_qubits_, [&](Index g0, Index g1) {
    for (Index g = g0; g < g1; ++g) {
      const Index base = canonical(g, sorted);
      for (std::size_t at = 0; at < cls.cycles.size();) {
        // image[s_i] = s_{i+1}: new[s_{i+1}] = old[s_i], rotated in place.
        const std::size_t m = static_cast<std::size_t>(cls.cycles[at]);
        const Index* cyc = cls.cycles.data() + at + 1;
        Cplx t = amp[base + offs[static_cast<std::size_t>(cyc[m - 1])]];
        for (std::size_t i = m - 1; i >= 1; --i) {
          amp[base + offs[static_cast<std::size_t>(cyc[i])]] =
              amp[base + offs[static_cast<std::size_t>(cyc[i - 1])]];
        }
        amp[base + offs[static_cast<std::size_t>(cyc[0])]] = t;
        at += m + 1;
      }
    }
  });
}

Real Statevector::prob_one(int qubit) const {
  QCUT_CHECK(qubit >= 0 && qubit < n_qubits_, "prob_one: qubit out of range");
  const Index s = Index{1} << bitpos(qubit);
  const SimdKernels& kr = active_kernels();
  const Cplx* amp = amp_.data();
  // Sums the set-bit half, one kernel call per chunk (chunks combine in index
  // order — see sweep_reduce).
  return sweep_reduce(dim() >> 1, n_qubits_, [&](Index g0, Index g1) {
    return kr.norm2(amp, BlockSweep{g0, g1 - g0, s, 0}, s);
  });
}

int Statevector::measure(int qubit, Rng& rng) {
  const Real p1 = prob_one(qubit);
  const int outcome = rng.bernoulli(p1) ? 1 : 0;
  project(qubit, outcome);
  return outcome;
}

namespace {

/// The shared body of project() and projected(): the live half's squared norm
/// p, then dst = src collapsed to the live half and renormalized by
/// 1/sqrt(p), every amplitude of dst written — the same kernels, chunks and
/// combine order whether dst is src or another buffer. dst is all zeros when
/// p = 0.
Real collapse(Cplx* dst, const Cplx* src, int n_qubits, Index s, int outcome) {
  const SimdKernels& kr = active_kernels();
  const Index groups = (Index{1} << n_qubits) >> 1;
  const Index live = outcome != 0 ? s : 0;
  const Real p = sweep_reduce(groups, n_qubits, [&](Index g0, Index g1) {
    return kr.norm2(src, BlockSweep{g0, g1 - g0, s, 0}, live);
  });
  if (p > 0.0) {
    const Cplx inv{1.0 / std::sqrt(p), 0.0};
    sweep(groups, n_qubits, [&](Index g0, Index g1) {
      kr.project(dst, src, BlockSweep{g0, g1 - g0, s, 0}, live, inv);
    });
  } else {
    std::fill(dst, dst + (groups << 1), Cplx{0.0, 0.0});
  }
  return p;
}

}  // namespace

Real Statevector::project(int qubit, int outcome) {
  QCUT_CHECK(qubit >= 0 && qubit < n_qubits_, "project: qubit out of range");
  QCUT_CHECK(outcome == 0 || outcome == 1, "project: outcome must be 0/1");
  return collapse(amp_.data(), amp_.data(), n_qubits_, Index{1} << bitpos(qubit), outcome);
}

Statevector Statevector::projected(const Statevector& src, int qubit, int outcome) {
  QCUT_CHECK(qubit >= 0 && qubit < src.n_qubits_, "projected: qubit out of range");
  QCUT_CHECK(outcome == 0 || outcome == 1, "projected: outcome must be 0/1");
  Vector out = take_buffer(src.n_qubits_);
  out.resize(src.amp_.size());
  collapse(out.data(), src.amp_.data(), src.n_qubits_, Index{1} << src.bitpos(qubit), outcome);
  return Statevector(Unchecked{}, src.n_qubits_, std::move(out));
}

void Statevector::reset(int qubit, Rng& rng) {
  const int outcome = measure(qubit, rng);
  if (outcome == 1) {
    // Flip back to |0⟩.
    const Index s = Index{1} << bitpos(qubit);
    const SimdKernels& kr = active_kernels();
    Cplx* amp = amp_.data();
    sweep(dim() >> 1, n_qubits_, [&](Index g0, Index g1) {
      kr.swap(amp, BlockSweep{g0, g1 - g0, s, 0}, 0, s);
    });
  }
}

void Statevector::initialize(const QubitList& qubits, const Vector& state) {
  const int k = static_cast<int>(qubits.size());
  const Index subdim = Index{1} << k;
  QCUT_CHECK(static_cast<Index>(state.size()) == subdim,
             "initialize: state/qubit-count mismatch");
  const StrideList strides = strides_of(qubits, n_qubits_);
  Index mask = 0;
  for (const Index s : strides) {
    mask |= s;
  }
  const Index dim_ = dim();
  // The qubits must currently be |0..0⟩: all amplitude weight on indices with
  // zero bits under `mask`. Checked unconditionally — a violated precondition
  // would silently scale surviving amplitudes by stale weight and corrupt
  // every downstream probability. The masked-norm sweep is O(2^n), the same
  // cost as the distribute loop below.
  Real leaked = 0.0;
  for (Index i = 0; i < dim_; ++i) {
    if ((i & mask) != 0) {
      leaked += norm2(amp_[static_cast<std::size_t>(i)]);
    }
  }
  QCUT_CHECK(leaked <= 1e-12, "initialize: qubits are not in |0..0⟩");
  // Distribute: amp[base | bits(sub)] = amp[base] * state[sub].
  const StrideList sorted = sorted_strides(strides);
  Cplx* amp = amp_.data();
  sweep(dim_ >> k, n_qubits_, [&](Index g0, Index g1) {
    for (Index g = g0; g < g1; ++g) {
      const Index base = canonical(g, sorted);
      const Cplx a = amp[base];
      for (Index sub = subdim - 1; sub >= 0; --sub) {
        amp[base + sub_offset(strides, sub)] = a * state[static_cast<std::size_t>(sub)];
      }
    }
  });
}

Real Statevector::expectation_pauli(const std::string& pauli) const {
  QCUT_CHECK(static_cast<int>(pauli.size()) == n_qubits_,
             "expectation_pauli: string length must equal qubit count");
  // I/Z-only strings (every cut observable the library measures natively) are
  // a single sign-weighted probability sweep — no state copy, no gate
  // applications.
  std::uint64_t zmask = 0;
  bool zi_only = true;
  for (int q = 0; q < n_qubits_; ++q) {
    const char c = pauli[static_cast<std::size_t>(q)];
    if (c == 'Z') {
      zmask |= std::uint64_t{1} << bitpos(q);
    } else if (c != 'I') {
      zi_only = false;
    }
  }
  if (zi_only) {
    // The sign parity(i & zmask) is constant over each aligned block of `lo`
    // indices (lo = lowest Z stride); chunks are counted in such blocks.
    const SimdKernels& kr = active_kernels();
    const Cplx* amp = amp_.data();
    const Index lo = zmask != 0 ? static_cast<Index>(zmask & (~zmask + 1)) : 1;
    const Index z = static_cast<Index>(zmask);
    return sweep_reduce(dim() / lo, n_qubits_, [&](Index b0, Index b1) {
      return kr.zsum(amp, b0 * lo, b1 * lo, z);
    });
  }
  // Apply the Pauli string to a copy and take the inner product (X/Y factors
  // dispatch to the permutation/diagonal kernels).
  Statevector copy = *this;
  for (int q = 0; q < n_qubits_; ++q) {
    const char c = pauli[static_cast<std::size_t>(q)];
    if (c == 'I') {
      continue;
    }
    copy.apply(pauli_matrix(pauli_from_char(c)), {q});
  }
  return inner(amp_, copy.amp_).real();
}

std::vector<Real> Statevector::probabilities() const {
  std::vector<Real> p(amp_.size());
  for (std::size_t i = 0; i < amp_.size(); ++i) {
    p[i] = norm2(amp_[i]);
  }
  return p;
}

Index Statevector::sample(Rng& rng) const {
  Real r = rng.uniform();
  for (std::size_t i = 0; i < amp_.size(); ++i) {
    const Real p = norm2(amp_[i]);
    if (r < p) {
      return static_cast<Index>(i);
    }
    r -= p;
  }
  return static_cast<Index>(amp_.size()) - 1;
}

Real Statevector::norm() const { return vec_norm(amp_); }

}  // namespace qcut
