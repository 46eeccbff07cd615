// Density-matrix simulation engine.
//
// Used for exact, sampling-free verification: QPD reconstruction identities,
// teleportation channels with arbitrary (mixed) resource states, and noise
// studies. O(4^n) memory, fine for the <= 6-qubit fragments the cut
// protocols produce.
#pragma once

#include <vector>

#include "qcut/common/small_vector.hpp"
#include "qcut/linalg/channel.hpp"
#include "qcut/linalg/matrix.hpp"

namespace qcut {

class DensityMatrix {
 public:
  /// |0..0⟩⟨0..0| on n qubits.
  explicit DensityMatrix(int n_qubits);
  /// From an explicit density operator (must be 2^n x 2^n).
  DensityMatrix(int n_qubits, Matrix rho);
  /// From a pure state.
  static DensityMatrix from_statevector(int n_qubits, const Vector& psi);

  int n_qubits() const noexcept { return n_qubits_; }
  const Matrix& rho() const noexcept { return rho_; }
  Matrix& rho() noexcept { return rho_; }

  /// ρ ← (U ⊗ I) ρ (U ⊗ I)† on the listed qubits.
  void apply_unitary(const Matrix& u, const QubitList& qubits);

  /// Applies a Kraus channel on the listed qubits.
  void apply_channel(const Channel& e, const QubitList& qubits);

  /// Probability of measuring 1 on `qubit` (no collapse).
  Real prob_one(int qubit) const;

  /// Projects onto outcome of `qubit` WITHOUT renormalizing; returns the
  /// branch probability. The unnormalized branch is what quasiprobability
  /// bookkeeping wants.
  Real project_unnormalized(int qubit, int outcome);

  /// Non-selective measurement: dephases `qubit` in the Z basis.
  void dephase(int qubit);

  /// Collapse-average reset of `qubit` to |0⟩ (the trace-preserving reset
  /// channel).
  void reset(int qubit);

  /// Tr[P ρ] for an n-qubit Pauli string.
  Real expectation_pauli(const std::string& pauli) const;

  Real trace() const;
  void renormalize();

 private:
  int n_qubits_;
  Matrix rho_;
};

}  // namespace qcut
