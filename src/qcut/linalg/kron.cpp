#include "qcut/linalg/kron.hpp"

#include <algorithm>

namespace qcut {

Matrix kron(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows() * b.rows(), a.cols() * b.cols());
  for (Index ar = 0; ar < a.rows(); ++ar) {
    for (Index ac = 0; ac < a.cols(); ++ac) {
      const Cplx av = a(ar, ac);
      if (is_zero(av, 0.0)) {
        continue;
      }
      for (Index br = 0; br < b.rows(); ++br) {
        for (Index bc = 0; bc < b.cols(); ++bc) {
          out(ar * b.rows() + br, ac * b.cols() + bc) = av * b(br, bc);
        }
      }
    }
  }
  return out;
}

Vector kron(const Vector& u, const Vector& v) {
  Vector out(u.size() * v.size(), Cplx{0.0, 0.0});
  for (std::size_t i = 0; i < u.size(); ++i) {
    for (std::size_t j = 0; j < v.size(); ++j) {
      out[i * v.size() + j] = u[i] * v[j];
    }
  }
  return out;
}

Matrix kron_all(const std::vector<Matrix>& ops) {
  QCUT_CHECK(!ops.empty(), "kron_all: empty list");
  Matrix acc = ops.front();
  for (std::size_t i = 1; i < ops.size(); ++i) {
    acc = kron(acc, ops[i]);
  }
  return acc;
}

Matrix embed(const Matrix& op, const QubitList& qubits, int n_qubits) {
  const Index k = static_cast<Index>(qubits.size());
  QCUT_CHECK(op.rows() == (Index{1} << k) && op.cols() == op.rows(),
             "embed: operator dimension does not match qubit count");
  QCUT_CHECK(n_qubits >= 1 && n_qubits <= 20, "embed: unsupported qubit count");
  for (int q : qubits) {
    QCUT_CHECK(q >= 0 && q < n_qubits, "embed: qubit index out of range");
    QCUT_CHECK(std::count(qubits.begin(), qubits.end(), q) == 1, "embed: duplicate qubit");
  }
  const Index dim = Index{1} << n_qubits;
  Matrix out(dim, dim);

  // Big-endian bit position of qubit q in a basis index.
  auto bit_of = [n_qubits](Index state, int q) -> Index {
    return (state >> (n_qubits - 1 - q)) & 1;
  };

  for (Index col = 0; col < dim; ++col) {
    // Sub-index of the op input formed by the selected qubits.
    Index sub_in = 0;
    for (Index j = 0; j < k; ++j) {
      sub_in = (sub_in << 1) | bit_of(col, qubits[static_cast<std::size_t>(j)]);
    }
    for (Index sub_out = 0; sub_out < op.rows(); ++sub_out) {
      const Cplx v = op(sub_out, sub_in);
      if (is_zero(v, 0.0)) {
        continue;
      }
      // Replace the selected qubits' bits in `col` with sub_out's bits.
      Index row = col;
      for (Index j = 0; j < k; ++j) {
        const int q = qubits[static_cast<std::size_t>(j)];
        const Index bit = (sub_out >> (k - 1 - j)) & 1;
        const Index mask = Index{1} << (n_qubits - 1 - q);
        row = (row & ~mask) | (bit ? mask : 0);
      }
      out(row, col) += v;
    }
  }
  return out;
}

}  // namespace qcut
