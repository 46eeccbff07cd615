// Kronecker products for matrices and state vectors.
#pragma once

#include <vector>

#include "qcut/common/small_vector.hpp"
#include "qcut/linalg/matrix.hpp"

namespace qcut {

/// A ⊗ B for matrices.
Matrix kron(const Matrix& a, const Matrix& b);

/// |u⟩ ⊗ |v⟩ for state vectors.
Vector kron(const Vector& u, const Vector& v);

/// Left-fold Kronecker product of a list (ops[0] ⊗ ops[1] ⊗ ...).
Matrix kron_all(const std::vector<Matrix>& ops);

/// Embeds a k-qubit operator acting on the given (distinct) qubit indices
/// into an n-qubit operator, identity elsewhere. Qubit 0 is the most
/// significant bit of the basis index (big-endian, matching the circuit
/// diagrams in the paper where the top wire is qubit 0).
Matrix embed(const Matrix& op, const QubitList& qubits, int n_qubits);

}  // namespace qcut
