// Statevector simulation engine.
//
// Stores 2^n complex amplitudes (big-endian: qubit 0 = most significant bit)
// and applies gates in place with O(2^n) work per single-qubit gate. This is
// the engine behind shot execution; exact channel verification uses the
// DensityMatrix engine instead.
//
// The hot sweeps run on the block-granular SIMD kernel table
// (sim/simd_kernels.hpp, one kernel call per sweep chunk at every qubit
// position) and — for states at or above the parallel threshold — are
// chunked over the request's pool (request_pool(), common/threadpool.hpp).
// Chunk boundaries are fixed in group space, independent of the pool size,
// and every reduction sums per-chunk partials in chunk index order, so
// results are bit-identical for any pool size (including no pool).
//
// Amplitude buffers of 2^kRecycleMinQubits amplitudes and more are recycled
// through one process-wide, mutex-guarded free list. A Statevector owns its
// buffer exclusively; the destructor and move assignment hand it to the list,
// and the |0...0⟩ constructor, copies and projected() take the smallest
// retained buffer that is large enough (a 2^16 buffer serves a 2^15 state),
// allocating only when every such buffer is in use. Retained bytes are
// capped at kRecycleCapBytes: a buffer that would reach the cap goes back to
// malloc. A taken buffer holds a previous state's amplitudes, and every
// taker writes all of it before the state is used, so recycling never
// changes a value. Smaller states stay on malloc.
#pragma once

#include <cstddef>
#include <vector>

#include "qcut/common/rng.hpp"
#include "qcut/common/small_vector.hpp"
#include "qcut/linalg/matrix.hpp"
#include "qcut/sim/gate_class.hpp"

namespace qcut {

class Statevector {
 public:
  /// Hard cap on simulable width: 2^n amplitudes hit the exponential memory
  /// wall (4 GiB of amplitudes at n = 28, doubling per qubit). Circuits wider
  /// than this must be executed fragment-locally (see qcut/cut/fragment.hpp)
  /// — the Circuit IR itself allows up to Circuit::kMaxQubits wires. The
  /// width is validated before the amplitude vector is allocated, so an
  /// over-wide construction throws qcut::Error instead of dying on OOM.
  static constexpr int kMaxQubits = 28;

  /// The narrowest state whose buffer is recycled (2^12 amplitudes, 64 KiB).
  static constexpr int kRecycleMinQubits = 12;
  /// Retained buffer bytes stay below this; a 22-qubit state and anything
  /// wider is never retained.
  static constexpr std::size_t kRecycleCapBytes = std::size_t{64} << 20;

  /// |0...0⟩ on n qubits.
  explicit Statevector(int n_qubits);
  /// Takes ownership of explicit amplitudes (must have power-of-two size and
  /// unit norm).
  Statevector(int n_qubits, Vector amplitudes);

  Statevector(const Statevector& other);
  Statevector(Statevector&& other) noexcept = default;
  Statevector& operator=(const Statevector& other);
  Statevector& operator=(Statevector&& other) noexcept;
  ~Statevector();

  /// Bytes of amplitude buffers the free list retains right now.
  static std::size_t recycled_bytes();

  int n_qubits() const noexcept { return n_qubits_; }
  const Vector& amplitudes() const noexcept { return amp_; }
  Index dim() const noexcept { return static_cast<Index>(amp_.size()); }

  /// Applies a k-qubit unitary to the listed qubits. Classifies the matrix
  /// structure on the fly; hot paths that hold a precomputed classification
  /// (Operation::gclass) use the three-argument overload instead.
  void apply(const Matrix& u, const QubitList& qubits);

  /// Applies `u` dispatching on a precomputed classification: diagonal gates
  /// run the amplitude-wise multiply kernel (no gather), permutation gates
  /// the amplitude-move kernel (no arithmetic), everything else the dense
  /// kernels. Passing a default-constructed GateClass forces the dense path
  /// (the benchmark yardstick for the specialized kernels).
  void apply(const Matrix& u, const QubitList& qubits, const GateClass& cls);

  /// Probability that measuring `qubit` yields 1.
  Real prob_one(int qubit) const;

  /// Measures `qubit` in the Z basis: collapses the state, returns the
  /// outcome bit.
  int measure(int qubit, Rng& rng);

  /// Deterministic projection: collapse `qubit` to `outcome` and renormalize;
  /// returns the branch probability. A p = 0 branch is left as the all-zero
  /// vector (never divided into NaNs) — the caller must drop it rather than
  /// keep using the state (run_branches prunes such branches unconditionally).
  Real project(int qubit, int outcome);

  /// Projected copy: `src` collapsed to `qubit = outcome` and renormalized,
  /// built in a single pass that writes every amplitude (same arithmetic as
  /// copy-then-project without the intermediate full copy). This is the
  /// branch-enumeration fast path: every measure/reset op copies each
  /// surviving branch's state once per outcome.
  /// A p = 0 projection yields the all-zero vector, exactly like project().
  static Statevector projected(const Statevector& src, int qubit, int outcome);

  /// Collapses `qubit` and re-prepares it in |0⟩.
  void reset(int qubit, Rng& rng);

  /// Sets the listed qubits (which must be in |0..0⟩ and unentangled with the
  /// rest) to `state`.
  void initialize(const QubitList& qubits, const Vector& state);

  /// ⟨ψ|P|ψ⟩ for an n-qubit Pauli string (e.g. "ZII").
  Real expectation_pauli(const std::string& pauli) const;

  /// Full probability distribution over computational basis outcomes.
  std::vector<Real> probabilities() const;

  /// Samples a computational-basis outcome index without collapsing.
  Index sample(Rng& rng) const;

  Real norm() const;

  /// Process-wide sweep threshold (default 22). States with n_qubits >=
  /// min_parallel_qubits distribute their fixed-size chunks over
  /// request_pool() (common/threadpool.hpp); narrower states always run
  /// inline. The pool NEVER changes results: chunk boundaries and the
  /// reduction order depend only on the state size. Sweeps from inside a
  /// worker of that pool run inline, as its parallel_for does for any nested
  /// call. A test seam; not thread-safe against concurrent sweeps.
  static void set_parallel_min_qubits(int min_parallel_qubits);

 private:
  struct Unchecked {};  ///< tag: internal construction of already-valid states
  Statevector(Unchecked, int n_qubits, Vector amplitudes)
      : n_qubits_(n_qubits), amp_(std::move(amplitudes)) {}

  int bitpos(int qubit) const noexcept { return n_qubits_ - 1 - qubit; }

  void apply_diagonal(const GateClass& cls, const QubitList& qubits);
  void apply_permutation(const GateClass& cls, const QubitList& qubits);

  int n_qubits_;
  Vector amp_;
};

}  // namespace qcut
