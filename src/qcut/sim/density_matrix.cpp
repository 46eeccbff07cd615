#include "qcut/sim/density_matrix.hpp"

#include "qcut/linalg/kron.hpp"
#include "qcut/linalg/pauli.hpp"

namespace qcut {

DensityMatrix::DensityMatrix(int n_qubits)
    : n_qubits_(n_qubits), rho_(Index{1} << n_qubits, Index{1} << n_qubits) {
  QCUT_CHECK(n_qubits >= 1 && n_qubits <= 10, "DensityMatrix: unsupported qubit count");
  rho_(0, 0) = Cplx{1.0, 0.0};
}

DensityMatrix::DensityMatrix(int n_qubits, Matrix rho) : n_qubits_(n_qubits), rho_(std::move(rho)) {
  QCUT_CHECK(n_qubits >= 1 && n_qubits <= 10, "DensityMatrix: unsupported qubit count");
  const Index dim = Index{1} << n_qubits;
  QCUT_CHECK(rho_.rows() == dim && rho_.cols() == dim, "DensityMatrix: dimension mismatch");
}

DensityMatrix DensityMatrix::from_statevector(int n_qubits, const Vector& psi) {
  return DensityMatrix(n_qubits, density(psi));
}

void DensityMatrix::apply_unitary(const Matrix& u, const QubitList& qubits) {
  const Matrix full = embed(u, qubits, n_qubits_);
  rho_ = full * rho_ * full.dagger();
}

void DensityMatrix::apply_channel(const Channel& e, const QubitList& qubits) {
  const Index dim = Index{1} << n_qubits_;
  Matrix acc(dim, dim);
  for (const auto& k : e.kraus()) {
    const Matrix full = embed(k, qubits, n_qubits_);
    acc += full * rho_ * full.dagger();
  }
  rho_ = std::move(acc);
}

Real DensityMatrix::prob_one(int qubit) const {
  QCUT_CHECK(qubit >= 0 && qubit < n_qubits_, "prob_one: qubit out of range");
  const Index stride = Index{1} << (n_qubits_ - 1 - qubit);
  Real p = 0.0;
  const Index dim = Index{1} << n_qubits_;
  for (Index i = 0; i < dim; ++i) {
    if (i & stride) {
      p += rho_(i, i).real();
    }
  }
  return p;
}

Real DensityMatrix::project_unnormalized(int qubit, int outcome) {
  QCUT_CHECK(qubit >= 0 && qubit < n_qubits_, "project: qubit out of range");
  const Index stride = Index{1} << (n_qubits_ - 1 - qubit);
  const Index dim = Index{1} << n_qubits_;
  Real p = 0.0;
  for (Index r = 0; r < dim; ++r) {
    const bool rbit = (r & stride) != 0;
    for (Index c = 0; c < dim; ++c) {
      const bool cbit = (c & stride) != 0;
      if (rbit != (outcome == 1) || cbit != (outcome == 1)) {
        rho_(r, c) = Cplx{0.0, 0.0};
      } else if (r == c) {
        p += rho_(r, c).real();
      }
    }
  }
  return p;
}

void DensityMatrix::dephase(int qubit) {
  QCUT_CHECK(qubit >= 0 && qubit < n_qubits_, "dephase: qubit out of range");
  const Index stride = Index{1} << (n_qubits_ - 1 - qubit);
  const Index dim = Index{1} << n_qubits_;
  for (Index r = 0; r < dim; ++r) {
    for (Index c = 0; c < dim; ++c) {
      if (((r & stride) != 0) != ((c & stride) != 0)) {
        rho_(r, c) = Cplx{0.0, 0.0};
      }
    }
  }
}

void DensityMatrix::reset(int qubit) {
  // Reset channel: |0⟩⟨0| ρ |0⟩⟨0| + |0⟩⟨1| ρ |1⟩⟨0| on the target qubit.
  Matrix k0(2, 2);
  k0(0, 0) = Cplx{1.0, 0.0};
  Matrix k1(2, 2);
  k1(0, 1) = Cplx{1.0, 0.0};
  apply_channel(Channel({k0, k1}), {qubit});
}

Real DensityMatrix::expectation_pauli(const std::string& pauli) const {
  QCUT_CHECK(static_cast<int>(pauli.size()) == n_qubits_,
             "expectation_pauli: string length must equal qubit count");
  return expectation(pauli_string(pauli), rho_).real();
}

Real DensityMatrix::trace() const { return rho_.trace().real(); }

void DensityMatrix::renormalize() {
  const Real t = trace();
  QCUT_CHECK(t > 0.0, "renormalize: zero trace");
  rho_ *= Cplx{1.0 / t, 0.0};
}

}  // namespace qcut
