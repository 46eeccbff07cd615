#include "qcut/linalg/matrix.hpp"

#include <cmath>
#include <sstream>

namespace qcut {

Matrix::Matrix(Index rows, Index cols)
    : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows * cols), Cplx{0.0, 0.0}) {
  QCUT_CHECK(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative");
}

Matrix::Matrix(std::initializer_list<std::initializer_list<Cplx>> rows) {
  rows_ = static_cast<Index>(rows.size());
  cols_ = rows_ > 0 ? static_cast<Index>(rows.begin()->size()) : 0;
  data_.reserve(static_cast<std::size_t>(rows_ * cols_));
  for (const auto& r : rows) {
    QCUT_CHECK(static_cast<Index>(r.size()) == cols_, "ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(Index n) {
  Matrix m(n, n);
  for (Index i = 0; i < n; ++i) {
    m(i, i) = Cplx{1.0, 0.0};
  }
  return m;
}

Matrix Matrix::zero(Index rows, Index cols) { return Matrix(rows, cols); }

Matrix Matrix::diag(const Vector& d) {
  const Index n = static_cast<Index>(d.size());
  Matrix m(n, n);
  for (Index i = 0; i < n; ++i) {
    m(i, i) = d[static_cast<std::size_t>(i)];
  }
  return m;
}

Matrix Matrix::outer(const Vector& u, const Vector& v) {
  Matrix m(static_cast<Index>(u.size()), static_cast<Index>(v.size()));
  for (Index r = 0; r < m.rows(); ++r) {
    const Cplx ur = u[static_cast<std::size_t>(r)];
    for (Index c = 0; c < m.cols(); ++c) {
      m(r, c) = ur * std::conj(v[static_cast<std::size_t>(c)]);
    }
  }
  return m;
}

Matrix Matrix::projector(const Vector& v) { return outer(v, v); }

Matrix& Matrix::operator+=(const Matrix& rhs) {
  QCUT_CHECK(rows_ == rhs.rows_ && cols_ == rhs.cols_, "matrix addition: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += rhs.data_[i];
  }
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  QCUT_CHECK(rows_ == rhs.rows_ && cols_ == rhs.cols_, "matrix subtraction: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] -= rhs.data_[i];
  }
  return *this;
}

Matrix& Matrix::operator*=(Cplx s) {
  for (auto& x : data_) {
    x *= s;
  }
  return *this;
}

Matrix Matrix::operator-() const {
  Matrix m = *this;
  for (Index r = 0; r < m.rows_; ++r) {
    for (Index c = 0; c < m.cols_; ++c) {
      m(r, c) = -m(r, c);
    }
  }
  return m;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  QCUT_CHECK(a.cols() == b.rows(), "matrix product: inner dimension mismatch");
  Matrix out(a.rows(), b.cols());
  // i-k-j loop order: the inner loop strides contiguously through b and out.
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index k = 0; k < a.cols(); ++k) {
      const Cplx aik = a(i, k);
      if (is_zero(aik, 0.0)) {
        continue;
      }
      const Cplx* brow = b.data() + static_cast<std::size_t>(k * b.cols());
      Cplx* orow = out.data() + static_cast<std::size_t>(i * out.cols());
      for (Index j = 0; j < b.cols(); ++j) {
        orow[j] += aik * brow[j];
      }
    }
  }
  return out;
}

Vector operator*(const Matrix& a, const Vector& x) {
  QCUT_CHECK(a.cols() == static_cast<Index>(x.size()), "matvec: dimension mismatch");
  Vector y(static_cast<std::size_t>(a.rows()), Cplx{0.0, 0.0});
  for (Index i = 0; i < a.rows(); ++i) {
    Cplx acc{0.0, 0.0};
    const Cplx* arow = a.data() + static_cast<std::size_t>(i * a.cols());
    for (Index j = 0; j < a.cols(); ++j) {
      acc += arow[j] * x[static_cast<std::size_t>(j)];
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
  return y;
}

Matrix Matrix::dagger() const {
  Matrix m(cols_, rows_);
  for (Index r = 0; r < rows_; ++r) {
    for (Index c = 0; c < cols_; ++c) {
      m(c, r) = std::conj((*this)(r, c));
    }
  }
  return m;
}

Matrix Matrix::transpose() const {
  Matrix m(cols_, rows_);
  for (Index r = 0; r < rows_; ++r) {
    for (Index c = 0; c < cols_; ++c) {
      m(c, r) = (*this)(r, c);
    }
  }
  return m;
}

Matrix Matrix::conj() const {
  Matrix m = *this;
  for (auto& x : m.data_) {
    x = std::conj(x);
  }
  return m;
}

Cplx Matrix::trace() const {
  QCUT_CHECK(square(), "trace of non-square matrix");
  Cplx t{0.0, 0.0};
  for (Index i = 0; i < rows_; ++i) {
    t += (*this)(i, i);
  }
  return t;
}

Real Matrix::norm() const {
  Real s = 0.0;
  for (const auto& x : data_) {
    s += norm2(x);
  }
  return std::sqrt(s);
}

Real Matrix::max_abs() const {
  Real m = 0.0;
  for (const auto& x : data_) {
    m = std::max(m, std::abs(x));
  }
  return m;
}

bool Matrix::approx_equal(const Matrix& other, Real tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return false;
  }
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - other.data_[i]) > tol) {
      return false;
    }
  }
  return true;
}

bool Matrix::is_hermitian(Real tol) const {
  if (!square()) {
    return false;
  }
  for (Index r = 0; r < rows_; ++r) {
    for (Index c = r; c < cols_; ++c) {
      if (std::abs((*this)(r, c) - std::conj((*this)(c, r))) > tol) {
        return false;
      }
    }
  }
  return true;
}

bool Matrix::is_unitary(Real tol) const {
  if (!square()) {
    return false;
  }
  return (dagger() * (*this)).approx_equal(identity(rows_), tol);
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  for (Index r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[[" : " [");
    for (Index c = 0; c < cols_; ++c) {
      const Cplx z = (*this)(r, c);
      os << z.real();
      if (z.imag() >= 0) {
        os << "+" << z.imag() << "i";
      } else {
        os << z.imag() << "i";
      }
      if (c + 1 < cols_) {
        os << ", ";
      }
    }
    os << (r + 1 < rows_ ? "],\n" : "]]");
  }
  return os.str();
}

Cplx inner(const Vector& u, const Vector& v) {
  QCUT_CHECK(u.size() == v.size(), "inner product: size mismatch");
  Cplx acc{0.0, 0.0};
  for (std::size_t i = 0; i < u.size(); ++i) {
    acc += std::conj(u[i]) * v[i];
  }
  return acc;
}

Real vec_norm(const Vector& v) {
  Real s = 0.0;
  for (const auto& x : v) {
    s += norm2(x);
  }
  return std::sqrt(s);
}

Vector normalized(const Vector& v) {
  const Real n = vec_norm(v);
  QCUT_CHECK(n > 0.0, "cannot normalize the zero vector");
  Vector out = v;
  for (auto& x : out) {
    x /= n;
  }
  return out;
}

Vector operator*(Cplx s, const Vector& v) {
  Vector out = v;
  for (auto& x : out) {
    x *= s;
  }
  return out;
}

bool approx_equal(const Vector& a, const Vector& b, Real tol) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > tol) {
      return false;
    }
  }
  return true;
}

Vector basis_vector(Index dim, Index i) {
  QCUT_CHECK(i >= 0 && i < dim, "basis_vector: index out of range");
  Vector v(static_cast<std::size_t>(dim), Cplx{0.0, 0.0});
  v[static_cast<std::size_t>(i)] = Cplx{1.0, 0.0};
  return v;
}

Matrix density(const Vector& v) { return Matrix::projector(v); }

Cplx expectation(const Matrix& a, const Vector& v) { return inner(v, a * v); }

Cplx expectation(const Matrix& a, const Matrix& rho) {
  QCUT_CHECK(a.square() && rho.square() && a.rows() == rho.rows(),
             "expectation: dimension mismatch");
  // Tr[A rho] = sum_{i,j} A(i,j) rho(j,i)
  Cplx acc{0.0, 0.0};
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < a.cols(); ++j) {
      acc += a(i, j) * rho(j, i);
    }
  }
  return acc;
}

Real fidelity(const Vector& psi, const Matrix& rho) {
  const Vector rp = rho * psi;
  return inner(psi, rp).real();
}

}  // namespace qcut
