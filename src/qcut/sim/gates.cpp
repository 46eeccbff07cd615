#include "qcut/sim/gates.hpp"

#include <cmath>

#include "qcut/linalg/decomp.hpp"

namespace qcut::gates {

const Matrix& h() {
  static const Matrix m{{Cplx{kInvSqrt2, 0}, Cplx{kInvSqrt2, 0}},
                        {Cplx{kInvSqrt2, 0}, Cplx{-kInvSqrt2, 0}}};
  return m;
}

const Matrix& x() {
  static const Matrix m{{Cplx{0, 0}, Cplx{1, 0}}, {Cplx{1, 0}, Cplx{0, 0}}};
  return m;
}

const Matrix& y() {
  static const Matrix m{{Cplx{0, 0}, Cplx{0, -1}}, {Cplx{0, 1}, Cplx{0, 0}}};
  return m;
}

const Matrix& z() {
  static const Matrix m{{Cplx{1, 0}, Cplx{0, 0}}, {Cplx{0, 0}, Cplx{-1, 0}}};
  return m;
}

const Matrix& s() {
  static const Matrix m{{Cplx{1, 0}, Cplx{0, 0}}, {Cplx{0, 0}, Cplx{0, 1}}};
  return m;
}

const Matrix& sdg() {
  static const Matrix m{{Cplx{1, 0}, Cplx{0, 0}}, {Cplx{0, 0}, Cplx{0, -1}}};
  return m;
}

const Matrix& t() {
  static const Matrix m{{Cplx{1, 0}, Cplx{0, 0}},
                        {Cplx{0, 0}, Cplx{kInvSqrt2, kInvSqrt2}}};
  return m;
}

const Matrix& tdg() {
  static const Matrix m{{Cplx{1, 0}, Cplx{0, 0}},
                        {Cplx{0, 0}, Cplx{kInvSqrt2, -kInvSqrt2}}};
  return m;
}

Matrix rx(Real theta) {
  const Real c = std::cos(theta / 2.0);
  const Real sn = std::sin(theta / 2.0);
  return Matrix{{Cplx{c, 0}, Cplx{0, -sn}}, {Cplx{0, -sn}, Cplx{c, 0}}};
}

Matrix ry(Real theta) {
  const Real c = std::cos(theta / 2.0);
  const Real sn = std::sin(theta / 2.0);
  return Matrix{{Cplx{c, 0}, Cplx{-sn, 0}}, {Cplx{sn, 0}, Cplx{c, 0}}};
}

Matrix rz(Real theta) {
  const Cplx em = std::exp(Cplx{0, -theta / 2.0});
  const Cplx ep = std::exp(Cplx{0, theta / 2.0});
  return Matrix{{em, Cplx{0, 0}}, {Cplx{0, 0}, ep}};
}

Matrix phase(Real lambda) {
  return Matrix{{Cplx{1, 0}, Cplx{0, 0}}, {Cplx{0, 0}, std::exp(Cplx{0, lambda})}};
}

Matrix u3(Real theta, Real phi, Real lambda) {
  const Real c = std::cos(theta / 2.0);
  const Real sn = std::sin(theta / 2.0);
  return Matrix{{Cplx{c, 0}, -std::exp(Cplx{0, lambda}) * sn},
                {std::exp(Cplx{0, phi}) * sn, std::exp(Cplx{0, phi + lambda}) * c}};
}

const Matrix& cx() {
  static const Matrix m{{Cplx{1, 0}, Cplx{0, 0}, Cplx{0, 0}, Cplx{0, 0}},
                        {Cplx{0, 0}, Cplx{1, 0}, Cplx{0, 0}, Cplx{0, 0}},
                        {Cplx{0, 0}, Cplx{0, 0}, Cplx{0, 0}, Cplx{1, 0}},
                        {Cplx{0, 0}, Cplx{0, 0}, Cplx{1, 0}, Cplx{0, 0}}};
  return m;
}

const Matrix& cz() {
  static const Matrix m{{Cplx{1, 0}, Cplx{0, 0}, Cplx{0, 0}, Cplx{0, 0}},
                        {Cplx{0, 0}, Cplx{1, 0}, Cplx{0, 0}, Cplx{0, 0}},
                        {Cplx{0, 0}, Cplx{0, 0}, Cplx{1, 0}, Cplx{0, 0}},
                        {Cplx{0, 0}, Cplx{0, 0}, Cplx{0, 0}, Cplx{-1, 0}}};
  return m;
}

const Matrix& swap() {
  static const Matrix m{{Cplx{1, 0}, Cplx{0, 0}, Cplx{0, 0}, Cplx{0, 0}},
                        {Cplx{0, 0}, Cplx{0, 0}, Cplx{1, 0}, Cplx{0, 0}},
                        {Cplx{0, 0}, Cplx{1, 0}, Cplx{0, 0}, Cplx{0, 0}},
                        {Cplx{0, 0}, Cplx{0, 0}, Cplx{0, 0}, Cplx{1, 0}}};
  return m;
}

const Matrix& ccx() {
  // Toffoli on (control, control, target); qubits[0] is the high index bit,
  // so |110⟩ ↔ |111⟩ (rows 6 and 7).
  static const Matrix m = [] {
    Matrix t = Matrix::identity(8);
    t(6, 6) = t(7, 7) = Cplx{0.0, 0.0};
    t(6, 7) = t(7, 6) = Cplx{1.0, 0.0};
    return t;
  }();
  return m;
}

const Matrix& cswap() {
  // Fredkin on (control, target, target): |101⟩ ↔ |110⟩ (rows 5 and 6).
  static const Matrix m = [] {
    Matrix t = Matrix::identity(8);
    t(5, 5) = t(6, 6) = Cplx{0.0, 0.0};
    t(5, 6) = t(6, 5) = Cplx{1.0, 0.0};
    return t;
  }();
  return m;
}

Matrix controlled(const Matrix& u) {
  QCUT_CHECK(u.rows() == 2 && u.cols() == 2, "controlled: expects a single-qubit gate");
  Matrix m = Matrix::identity(4);
  for (Index r = 0; r < 2; ++r) {
    for (Index c = 0; c < 2; ++c) {
      m(2 + r, 2 + c) = u(r, c);
    }
  }
  return m;
}

Matrix prep_unitary(const Vector& state) {
  const Index dim = static_cast<Index>(state.size());
  QCUT_CHECK(dim >= 2 && (dim & (dim - 1)) == 0, "prep_unitary: dimension must be a power of 2");
  QCUT_CHECK(approx_eq(vec_norm(state), 1.0, 1e-9), "prep_unitary: state must be normalized");
  // QR of [state | I]: the first column of Q is the state up to a phase.
  Matrix aug(dim, dim + 1);
  for (Index i = 0; i < dim; ++i) {
    aug(i, 0) = state[static_cast<std::size_t>(i)];
    aug(i, i + 1) = Cplx{1.0, 0.0};
  }
  QrResult f = qr(aug);
  Matrix u(dim, dim);
  // Fix the global phase so that U|0..0> equals `state` exactly.
  Cplx ph{0.0, 0.0};
  for (Index i = 0; i < dim; ++i) {
    ph += std::conj(f.q(i, 0)) * state[static_cast<std::size_t>(i)];
  }
  const Real aph = std::abs(ph);
  const Cplx rot = aph > 0.0 ? ph / aph : Cplx{1.0, 0.0};
  for (Index j = 0; j < dim; ++j) {
    for (Index i = 0; i < dim; ++i) {
      u(i, j) = f.q(i, j) * (j == 0 ? rot : Cplx{1.0, 0.0});
    }
  }
  return u;
}

}  // namespace qcut::gates
