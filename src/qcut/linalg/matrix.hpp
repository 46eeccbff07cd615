// Dense complex matrices and vectors.
//
// A deliberately small, dependency-free linear-algebra layer sized for
// quantum-information workloads: matrices are at most 2^n x 2^n for n <= ~12
// qubits, so a straightforward row-major dense representation with O(n^3)
// kernels is the right tool (no BLAS needed at these sizes).
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

#include "qcut/common/error.hpp"
#include "qcut/common/types.hpp"

namespace qcut {

using Vector = std::vector<Cplx>;

class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized rows x cols matrix.
  Matrix(Index rows, Index cols);

  /// Row-major construction from a nested initializer list.
  Matrix(std::initializer_list<std::initializer_list<Cplx>> rows);

  static Matrix identity(Index n);
  static Matrix zero(Index rows, Index cols);
  /// Diagonal matrix from a vector.
  static Matrix diag(const Vector& d);
  /// Outer product |u><v| (u * v^dagger).
  static Matrix outer(const Vector& u, const Vector& v);
  /// Rank-1 projector |v><v|.
  static Matrix projector(const Vector& v);

  Index rows() const noexcept { return rows_; }
  Index cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }
  bool square() const noexcept { return rows_ == cols_; }

  Cplx& operator()(Index r, Index c) {
    QCUT_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_, "matrix index out of range");
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  Cplx operator()(Index r, Index c) const {
    QCUT_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_, "matrix index out of range");
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  Cplx* data() noexcept { return data_.data(); }
  const Cplx* data() const noexcept { return data_.data(); }

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(Cplx s);

  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix lhs, Cplx s) { return lhs *= s; }
  friend Matrix operator*(Cplx s, Matrix rhs) { return rhs *= s; }
  friend Matrix operator*(Matrix lhs, Real s) { return lhs *= Cplx{s, 0.0}; }
  friend Matrix operator*(Real s, Matrix rhs) { return rhs *= Cplx{s, 0.0}; }
  Matrix operator-() const;

  /// Matrix product (classic triple loop with k-inner reordering).
  friend Matrix operator*(const Matrix& a, const Matrix& b);

  /// Matrix-vector product.
  friend Vector operator*(const Matrix& a, const Vector& x);

  /// Conjugate transpose.
  Matrix dagger() const;
  /// Transpose without conjugation.
  Matrix transpose() const;
  /// Entrywise complex conjugate.
  Matrix conj() const;

  Cplx trace() const;
  /// Frobenius norm.
  Real norm() const;
  /// Largest absolute entry.
  Real max_abs() const;

  bool approx_equal(const Matrix& other, Real tol = kTightTol) const;
  bool is_hermitian(Real tol = kTightTol) const;
  bool is_unitary(Real tol = kTightTol) const;
  /// Positive semidefinite check via Hermitian part + eigenvalues (declared
  /// here, implemented in decomp.cpp which owns the eigensolver).
  bool is_psd(Real tol = kDecompTol) const;

  /// Human-readable multi-line rendering (for diagnostics and examples).
  std::string to_string(int precision = 4) const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Cplx> data_;
};

// ---- Vector helpers -------------------------------------------------------

/// <u|v> with conjugation on the left argument.
Cplx inner(const Vector& u, const Vector& v);
/// 2-norm.
Real vec_norm(const Vector& v);
/// v / ||v||; throws on the zero vector.
Vector normalized(const Vector& v);
Vector operator*(Cplx s, const Vector& v);
bool approx_equal(const Vector& a, const Vector& b, Real tol = kTightTol);

/// Computational basis vector |i> of dimension dim.
Vector basis_vector(Index dim, Index i);

/// Density operator |v><v| of a pure state.
Matrix density(const Vector& v);

/// Expectation <v|A|v>.
Cplx expectation(const Matrix& a, const Vector& v);
/// Tr[A rho].
Cplx expectation(const Matrix& a, const Matrix& rho);

/// Fidelity between a pure state |psi> and density rho: <psi|rho|psi>.
Real fidelity(const Vector& psi, const Matrix& rho);

}  // namespace qcut
