#include "qcut/sim/statevector.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "qcut/common/threadpool.hpp"
#include "qcut/linalg/pauli.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/sim/simd_dispatch.hpp"

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

/// Inserts a zero bit at the position of `stride` (a power of two): bits at or
/// above the position shift up by one, bits below stay. Repeated over the
/// participating qubits' strides in ascending order, this expands a dense
/// group id into the canonical (all participating bits zero) basis index —
/// the stride-based replacement for scanning all 2^n indices and skipping the
/// masked ones.
inline Index insert_zero(Index g, Index stride) {
  return ((g & ~(stride - 1)) << 1) | (g & (stride - 1));
}

// ---- threading policy -------------------------------------------------------
//
// Sweeps are chunked in *group space* with a fixed chunk size. The chunk
// boundaries depend only on the sweep's group count — never on the pool, its
// size, or whether the chunks actually run concurrently — and reductions sum
// per-chunk partials in chunk index order, so every sweep is bit-identical
// for any pool configuration. The pool only decides wall-clock, not values.

std::atomic<ThreadPool*> g_parallel_pool{nullptr};
std::atomic<int> g_parallel_min_qubits{22};

constexpr Index kChunkGroups = Index{1} << 16;

/// The pool to distribute chunks over, or nullptr for inline execution.
/// Inline when: the state is below the parallel threshold (keeps the
/// fragment hot path allocation-free), the pool has a single worker, or the
/// caller already runs on one of its workers (nested parallel_for would
/// deadlock on the pool's own futures). The global pool is constructed
/// lazily, and only once a >= threshold state is actually swept.
ThreadPool* sweep_pool(int n_qubits) {
  if (n_qubits < g_parallel_min_qubits.load(std::memory_order_relaxed)) {
    return nullptr;
  }
  ThreadPool* pool = g_parallel_pool.load(std::memory_order_acquire);
  if (pool == nullptr) {
    pool = &global_pool();
  }
  if (pool->size() < 2 || pool->on_worker_thread()) {
    return nullptr;
  }
  return pool;
}

/// Runs body(g0, g1) over the fixed chunks of [0, groups).
template <typename Body>
void sweep(Index groups, int n_qubits, const Body& body) {
  if (groups <= kChunkGroups) {
    body(Index{0}, groups);
    return;
  }
  if (ThreadPool* pool = sweep_pool(n_qubits)) {
    pool->parallel_for_chunked(
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
  const Index n_chunks = (groups + kChunkGroups - 1) / kChunkGroups;
  std::vector<Real> partial(static_cast<std::size_t>(n_chunks), 0.0);
  const auto run_chunk = [&](std::size_t c) {
    const Index g0 = static_cast<Index>(c) * kChunkGroups;
    partial[c] = body(g0, std::min(groups, g0 + kChunkGroups));
  };
  if (ThreadPool* pool = sweep_pool(n_qubits)) {
    pool->parallel_for(0, static_cast<std::size_t>(n_chunks), run_chunk);
  } else {
    for (std::size_t c = 0; c < static_cast<std::size_t>(n_chunks); ++c) {
      run_chunk(c);
    }
  }
  Real acc = 0.0;
  for (std::size_t c = 0; c < static_cast<std::size_t>(n_chunks); ++c) {
    acc += partial[c];
  }
  return acc;
}

/// Calls f(base, len) for the maximal contiguous index segments of the group
/// id range [g0, g1): a group id expands through insert_zero over the sorted
/// strides, and ids that agree above the lowest stride expand to consecutive
/// indices — the contiguous runs the SIMD kernels consume.
template <typename F>
inline void for_runs(Index g0, Index g1, const Index* sorted, int k, F&& f) {
  const Index lo = sorted[0];
  Index g = g0;
  while (g < g1) {
    const Index len = std::min(lo - (g & (lo - 1)), g1 - g);
    Index idx = g;
    for (int j = 0; j < k; ++j) {
      idx = insert_zero(idx, sorted[j]);
    }
    f(idx, len);
    g += len;
  }
}

}  // namespace

void Statevector::set_parallel_config(ThreadPool* pool, int min_parallel_qubits) {
  QCUT_CHECK(min_parallel_qubits >= 1, "set_parallel_config: threshold must be >= 1");
  g_parallel_pool.store(pool, std::memory_order_release);
  g_parallel_min_qubits.store(min_parallel_qubits, std::memory_order_relaxed);
}

int Statevector::parallel_min_qubits() noexcept {
  return g_parallel_min_qubits.load(std::memory_order_relaxed);
}

Statevector::Statevector(int n_qubits)
    : n_qubits_(n_qubits), amp_(checked_dim(n_qubits), Cplx{0.0, 0.0}) {
  amp_[0] = Cplx{1.0, 0.0};
}

Statevector::Statevector(int n_qubits, Vector amplitudes)
    : n_qubits_(n_qubits), amp_(std::move(amplitudes)) {
  (void)checked_dim(n_qubits);
  QCUT_CHECK(amp_.size() == (std::size_t{1} << n_qubits),
             "Statevector: amplitude count mismatch");
  QCUT_CHECK(approx_eq(vec_norm(amp_), 1.0, 1e-8), "Statevector: state must be normalized");
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
  const SimdKernels& kr = active_kernels();
  Cplx* amp = amp_.data();

  if (k == 1) {
    // Dense single-qubit kernel: contiguous zero-half / one-half runs, or the
    // interleaved-pair kernel when the target is the least significant bit.
    const Index s = Index{1} << bitpos(qubits[0]);
    const Cplx m[4] = {u(0, 0), u(0, 1), u(1, 0), u(1, 1)};
    sweep(dim_ >> 1, n_qubits_, [&](Index g0, Index g1) {
      if (s == 1) {
        kr.apply1_pairs(amp + 2 * g0, g1 - g0, m);
        return;
      }
      for_runs(g0, g1, &s, 1, [&](Index base, Index len) {
        kr.apply1_run(amp + base, amp + base + s, len, m);
      });
    });
    return;
  }

  if (k == 2) {
    // Dense two-qubit kernel. Sub-index convention matches the generic path:
    // qubits[0] is the high bit, qubits[1] the low bit.
    const Index s0 = Index{1} << bitpos(qubits[0]);
    const Index s1 = Index{1} << bitpos(qubits[1]);
    const Index sorted[2] = {std::min(s0, s1), std::max(s0, s1)};
    Cplx m[16];
    for (Index r = 0; r < 4; ++r) {
      for (Index c = 0; c < 4; ++c) {
        m[4 * r + c] = u(r, c);
      }
    }
    sweep(dim_ >> 2, n_qubits_, [&](Index g0, Index g1) {
      for_runs(g0, g1, sorted, 2, [&](Index base, Index len) {
        kr.apply2_run(amp + base, amp + base + s1, amp + base + s0, amp + base + s0 + s1, len,
                      m);
      });
    });
    return;
  }

  // General k-qubit path: gather/scatter over the 2^k amplitudes of each row
  // group, enumerating the canonical representatives directly. Groups write
  // disjoint slots, so the sweep chunks distribute safely.
  std::vector<Index> strides(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    strides[static_cast<std::size_t>(j)] = Index{1} << bitpos(qubits[static_cast<std::size_t>(j)]);
  }
  std::vector<Index> sorted = strides;
  std::sort(sorted.begin(), sorted.end());
  sweep(dim_ >> k, n_qubits_, [&](Index g0, Index g1) {
    std::vector<Cplx> scratch(static_cast<std::size_t>(subdim));
    for (Index g = g0; g < g1; ++g) {
      Index base = g;
      for (int j = 0; j < k; ++j) {
        base = insert_zero(base, sorted[static_cast<std::size_t>(j)]);
      }
      // Gather.
      for (Index sub = 0; sub < subdim; ++sub) {
        Index idx = base;
        for (int j = 0; j < k; ++j) {
          if ((sub >> (k - 1 - j)) & 1) {
            idx |= strides[static_cast<std::size_t>(j)];
          }
        }
        scratch[static_cast<std::size_t>(sub)] = amp[idx];
      }
      // Multiply and scatter.
      for (Index row = 0; row < subdim; ++row) {
        Cplx acc{0.0, 0.0};
        for (Index col = 0; col < subdim; ++col) {
          acc += u(row, col) * scratch[static_cast<std::size_t>(col)];
        }
        Index idx = base;
        for (int j = 0; j < k; ++j) {
          if ((row >> (k - 1 - j)) & 1) {
            idx |= strides[static_cast<std::size_t>(j)];
          }
        }
        amp[idx] = acc;
      }
    }
  });
}

void Statevector::apply_diagonal(const GateClass& cls, const QubitList& qubits) {
  const int k = static_cast<int>(qubits.size());
  const Index dim_ = dim();
  const SimdKernels& kr = active_kernels();
  Cplx* amp = amp_.data();
  std::vector<Index> strides(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    strides[static_cast<std::size_t>(j)] = Index{1} << bitpos(qubits[static_cast<std::size_t>(j)]);
  }

  if (cls.phase_index >= 0) {
    // Sparse phase: every diagonal entry but one is exactly 1 — only the
    // matching 2^{n-k} amplitude slice is touched (a quarter of the state for
    // the cu1/cp gates that dominate QFT circuits), one phase sweep per run.
    const Cplx phase = cls.diag[static_cast<std::size_t>(cls.phase_index)];
    if (phase == Cplx{1.0, 0.0}) {
      return;  // identity
    }
    Index offset = 0;
    for (int j = 0; j < k; ++j) {
      if ((cls.phase_index >> (k - 1 - j)) & 1) {
        offset |= strides[static_cast<std::size_t>(j)];
      }
    }
    std::vector<Index> sorted = strides;
    std::sort(sorted.begin(), sorted.end());
    sweep(dim_ >> k, n_qubits_, [&](Index g0, Index g1) {
      for_runs(g0, g1, sorted.data(), k, [&](Index base, Index len) {
        kr.scale_run(amp + base + offset, len, phase);
      });
    });
    return;
  }

  // Dense diagonal: one multiply per amplitude, no gather.
  if (k == 1) {
    const Index s = strides[0];
    const Cplx d0 = cls.diag[0], d1 = cls.diag[1];
    sweep(dim_ >> 1, n_qubits_, [&](Index g0, Index g1) {
      if (s == 1) {
        kr.diag1_pairs(amp + 2 * g0, g1 - g0, d0, d1);
        return;
      }
      for_runs(g0, g1, &s, 1, [&](Index base, Index len) {
        kr.scale_run(amp + base, len, d0);
        kr.scale_run(amp + base + s, len, d1);
      });
    });
    return;
  }
  if (k == 2) {
    const Index s0 = strides[0];
    const Index s1 = strides[1];
    const Index sorted[2] = {std::min(s0, s1), std::max(s0, s1)};
    const Cplx d0 = cls.diag[0], d1 = cls.diag[1], d2 = cls.diag[2], d3 = cls.diag[3];
    sweep(dim_ >> 2, n_qubits_, [&](Index g0, Index g1) {
      for_runs(g0, g1, sorted, 2, [&](Index base, Index len) {
        kr.scale_run(amp + base, len, d0);
        kr.scale_run(amp + base + s1, len, d1);
        kr.scale_run(amp + base + s0, len, d2);
        kr.scale_run(amp + base + s0 + s1, len, d3);
      });
    });
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
  std::vector<Index> strides(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    strides[static_cast<std::size_t>(j)] = Index{1} << bitpos(qubits[static_cast<std::size_t>(j)]);
  }
  std::vector<Index> offs(static_cast<std::size_t>(subdim), 0);
  for (Index sub = 0; sub < subdim; ++sub) {
    for (int j = 0; j < k; ++j) {
      if ((sub >> (k - 1 - j)) & 1) {
        offs[static_cast<std::size_t>(sub)] |= strides[static_cast<std::size_t>(j)];
      }
    }
  }
  std::vector<Index> sorted = strides;
  std::sort(sorted.begin(), sorted.end());

  if (cls.cycles.size() == 3 && cls.cycles[0] == 2) {
    // The ubiquitous involution shape (x, cx, swap): one pairwise swap per
    // group, touching only the cycle's slice of the state. Distinct offsets
    // differ by at least the lowest stride, so the swapped runs never overlap.
    const Index oa = offs[static_cast<std::size_t>(cls.cycles[1])];
    const Index ob = offs[static_cast<std::size_t>(cls.cycles[2])];
    sweep(dim_ >> k, n_qubits_, [&](Index g0, Index g1) {
      for_runs(g0, g1, sorted.data(), k, [&](Index base, Index len) {
        std::swap_ranges(amp + base + oa, amp + base + oa + len, amp + base + ob);
      });
    });
    return;
  }

  sweep(dim_ >> k, n_qubits_, [&](Index g0, Index g1) {
    for (Index g = g0; g < g1; ++g) {
      Index base = g;
      for (int j = 0; j < k; ++j) {
        base = insert_zero(base, sorted[static_cast<std::size_t>(j)]);
      }
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
  const Index dim_ = dim();
  const SimdKernels& kr = active_kernels();
  const Cplx* amp = amp_.data();
  // Sums the set-bit half, one norm2 run per group (runs combine in ascending
  // index order within a chunk, chunks in index order — see sweep_reduce).
  return sweep_reduce(dim_ >> 1, n_qubits_, [&](Index g0, Index g1) {
    Real acc = 0.0;
    if (s == 1) {
      for (Index g = g0; g < g1; ++g) {
        acc += norm2(amp[2 * g + 1]);
      }
      return acc;
    }
    for_runs(g0, g1, &s, 1, [&](Index base, Index len) {
      acc += kr.norm2_run(amp + base + s, len);
    });
    return acc;
  });
}

int Statevector::measure(int qubit, Rng& rng) {
  const Real p1 = prob_one(qubit);
  const int outcome = rng.bernoulli(p1) ? 1 : 0;
  project(qubit, outcome);
  return outcome;
}

Real Statevector::project(int qubit, int outcome) {
  QCUT_CHECK(qubit >= 0 && qubit < n_qubits_, "project: qubit out of range");
  QCUT_CHECK(outcome == 0 || outcome == 1, "project: outcome must be 0/1");
  const Index s = Index{1} << bitpos(qubit);
  const Index dim_ = dim();
  const SimdKernels& kr = active_kernels();
  Cplx* amp = amp_.data();
  const Real p = sweep_reduce(dim_ >> 1, n_qubits_, [&](Index g0, Index g1) {
    Real acc = 0.0;
    if (s == 1) {
      for (Index g = g0; g < g1; ++g) {
        acc += norm2(amp[2 * g + outcome]);
        amp[2 * g + (1 - outcome)] = Cplx{0.0, 0.0};
      }
      return acc;
    }
    for_runs(g0, g1, &s, 1, [&](Index base, Index len) {
      const Index live = outcome ? base + s : base;
      const Index dead = outcome ? base : base + s;
      acc += kr.norm2_run(amp + live, len);
      std::fill(amp + dead, amp + dead + len, Cplx{0.0, 0.0});
    });
    return acc;
  });
  if (p > 0.0) {
    const Cplx inv{1.0 / std::sqrt(p), 0.0};
    sweep(dim_, n_qubits_, [&](Index i0, Index i1) { kr.scale_run(amp + i0, i1 - i0, inv); });
  }
  return p;
}

Statevector Statevector::projected(const Statevector& src, int qubit, int outcome) {
  QCUT_CHECK(qubit >= 0 && qubit < src.n_qubits_, "projected: qubit out of range");
  QCUT_CHECK(outcome == 0 || outcome == 1, "projected: outcome must be 0/1");
  const Index s = Index{1} << src.bitpos(qubit);
  const Index dim_ = src.dim();
  const SimdKernels& kr = active_kernels();
  const Cplx* in = src.amp_.data();
  // Same renormalization constant as project(): identical chunking, identical
  // run kernels over the live half, identical combine order.
  const Real p = sweep_reduce(dim_ >> 1, src.n_qubits_, [&](Index g0, Index g1) {
    Real acc = 0.0;
    if (s == 1) {
      for (Index g = g0; g < g1; ++g) {
        acc += norm2(in[2 * g + outcome]);
      }
      return acc;
    }
    for_runs(g0, g1, &s, 1, [&](Index base, Index len) {
      acc += kr.norm2_run(in + (outcome ? base + s : base), len);
    });
    return acc;
  });
  Vector out(static_cast<std::size_t>(dim_), Cplx{0.0, 0.0});
  if (p > 0.0) {
    const Cplx inv{1.0 / std::sqrt(p), 0.0};
    Cplx* dst = out.data();
    sweep(dim_ >> 1, src.n_qubits_, [&](Index g0, Index g1) {
      if (s == 1) {
        for (Index g = g0; g < g1; ++g) {
          dst[2 * g + outcome] = in[2 * g + outcome] * inv;
        }
        return;
      }
      for_runs(g0, g1, &s, 1, [&](Index base, Index len) {
        const Index live = outcome ? base + s : base;
        std::copy(in + live, in + live + len, dst + live);
        kr.scale_run(dst + live, len, inv);
      });
    });
  }
  return Statevector(Unchecked{}, src.n_qubits_, std::move(out));
}

void Statevector::reset(int qubit, Rng& rng) {
  const int outcome = measure(qubit, rng);
  if (outcome == 1) {
    // Flip back to |0⟩.
    const Index s = Index{1} << bitpos(qubit);
    const Index dim_ = dim();
    Cplx* amp = amp_.data();
    sweep(dim_ >> 1, n_qubits_, [&](Index g0, Index g1) {
      if (s == 1) {
        for (Index g = g0; g < g1; ++g) {
          std::swap(amp[2 * g], amp[2 * g + 1]);
        }
        return;
      }
      for_runs(g0, g1, &s, 1, [&](Index base, Index len) {
        std::swap_ranges(amp + base, amp + base + len, amp + base + s);
      });
    });
  }
}

void Statevector::initialize(const QubitList& qubits, const Vector& state) {
  const int k = static_cast<int>(qubits.size());
  const Index subdim = Index{1} << k;
  QCUT_CHECK(static_cast<Index>(state.size()) == subdim,
             "initialize: state/qubit-count mismatch");
  Index mask = 0;
  std::vector<Index> strides(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    strides[static_cast<std::size_t>(j)] = Index{1} << bitpos(qubits[static_cast<std::size_t>(j)]);
    mask |= strides[static_cast<std::size_t>(j)];
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
  std::vector<Index> sorted = strides;
  std::sort(sorted.begin(), sorted.end());
  Cplx* amp = amp_.data();
  sweep(dim_ >> k, n_qubits_, [&](Index g0, Index g1) {
    for (Index g = g0; g < g1; ++g) {
      Index base = g;
      for (int j = 0; j < k; ++j) {
        base = insert_zero(base, sorted[static_cast<std::size_t>(j)]);
      }
      const Cplx a = amp[base];
      for (Index sub = subdim - 1; sub >= 0; --sub) {
        Index idx = base;
        for (int j = 0; j < k; ++j) {
          if ((sub >> (k - 1 - j)) & 1) {
            idx |= strides[static_cast<std::size_t>(j)];
          }
        }
        amp[idx] = a * state[static_cast<std::size_t>(sub)];
        if (sub == 0) {
          break;
        }
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
    const Index dim_ = dim();
    const SimdKernels& kr = active_kernels();
    const Cplx* amp = amp_.data();
    if (zmask == 0) {
      return sweep_reduce(dim_, n_qubits_, [&](Index i0, Index i1) {
        return kr.norm2_run(amp + i0, i1 - i0);
      });
    }
    // The sign parity64(i & zmask) is constant over each aligned block of
    // `lo` indices (lo = lowest Z stride): one signed norm2 run per block.
    const Index lo = static_cast<Index>(zmask & (~zmask + 1));
    return sweep_reduce(dim_ / lo, n_qubits_, [&](Index b0, Index b1) {
      Real acc = 0.0;
      for (Index b = b0; b < b1; ++b) {
        const Index base = b * lo;
        const Real w = kr.norm2_run(amp + base, lo);
        acc += parity64(static_cast<std::uint64_t>(base) & zmask) ? -w : w;
      }
      return acc;
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
