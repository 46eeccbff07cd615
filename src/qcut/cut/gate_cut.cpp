#include "qcut/cut/gate_cut.hpp"

#include <cmath>
#include <sstream>

#include "qcut/cut/teleportation.hpp"
#include "qcut/linalg/kron.hpp"
#include "qcut/linalg/pauli.hpp"
#include "qcut/sim/gates.hpp"

namespace qcut {

namespace {

// e^{iαπ/4 Z} = Rz(−απ/2) up to global phase.
Matrix quarter_rotation(Real alpha) { return gates::rz(-alpha * kPi / 2.0); }

}  // namespace

Real zz_gate_cut_overhead(Real theta) { return 1.0 + 2.0 * std::abs(std::sin(2.0 * theta)); }

ZzGateCut::ZzGateCut(Real theta)
    : theta_(theta), local_a_(Matrix::identity(2)), local_b_(Matrix::identity(2)) {}

ZzGateCut::ZzGateCut(Real theta, Matrix local_a, Matrix local_b)
    : theta_(theta), local_a_(std::move(local_a)), local_b_(std::move(local_b)) {
  QCUT_CHECK(local_a_.rows() == 2 && local_a_.cols() == 2 && local_b_.rows() == 2 &&
                 local_b_.cols() == 2,
             "ZzGateCut: locals must be 2x2");
}

std::string ZzGateCut::name() const {
  std::ostringstream os;
  os << "zz-gate(theta=" << theta_ << ")";
  return os.str();
}

ZzFactorization zz_factor_diagonal(const Matrix& u) {
  ZzFactorization out;
  if (u.rows() != 4 || u.cols() != 4) {
    return out;
  }
  constexpr Real tol = 1e-9;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      if (r != c && std::abs(u(r, c)) > tol) {
        return out;  // not diagonal
      }
    }
    if (std::abs(std::abs(u(r, r)) - 1.0) > tol) {
      return out;  // not unitary-diagonal
    }
  }
  const Cplx d00 = u(0, 0), d01 = u(1, 1), d10 = u(2, 2), d11 = u(3, 3);
  // diag(U) = (a0,a1) ⊗ (b0,b1) · diag(e^{iθ}, e^{-iθ}, e^{-iθ}, e^{iθ}):
  // the product d00·d11·conj(d01)·conj(d10) = e^{4iθ} isolates θ, and the
  // locals follow by back-substitution with a0 = 1 (the global phase lands
  // in b0/b1).
  out.theta = std::arg(d00 * d11 * std::conj(d01) * std::conj(d10)) / 4.0;
  const Cplx eitheta = std::polar<Real>(1.0, out.theta);
  const Cplx b0 = d00 / eitheta;
  const Cplx b1 = d01 * eitheta;
  const Cplx a1 = d10 * eitheta / b0;
  out.local_a = Matrix::identity(2);
  out.local_a(1, 1) = a1;
  out.local_b = Matrix::identity(2);
  out.local_b(0, 0) = b0;
  out.local_b(1, 1) = b1;
  QCUT_CHECK(std::abs(a1 * b1 * eitheta - d11) < 1e-8,
             "zz_factor_diagonal: factorization check failed");
  out.ok = true;
  return out;
}

std::vector<GateCutTerm> zz_gate_cut_terms(Real theta) {
  const Real c = std::cos(theta);
  const Real s = std::sin(theta);
  std::vector<GateCutTerm> out;

  {
    GateCutTerm t;
    t.coefficient = c * c;
    t.cbits = 0;
    t.label = "zz-identity";
    t.append = [](Circuit&, int, int, int) {};
    out.push_back(std::move(t));
  }
  {
    GateCutTerm t;
    t.coefficient = s * s;
    t.cbits = 0;
    t.label = "zz-both-z";
    t.append = [](Circuit& c2, int qa, int qb, int) {
      c2.z(qa);
      c2.z(qb);
    };
    out.push_back(std::move(t));
  }
  const Real cs = c * s;
  if (std::abs(cs) > 1e-15) {
    for (int mirror = 0; mirror < 2; ++mirror) {
      for (Real alpha : {1.0, -1.0}) {
        GateCutTerm t;
        t.coefficient = alpha * cs;
        t.cbits = 1;
        t.sign_cbit = 0;
        t.label = std::string(mirror ? "zz-mirror-" : "zz-") + (alpha > 0 ? "plus" : "minus");
        t.append = [alpha, mirror](Circuit& c2, int qa, int qb, int cbit0) {
          const int measured = mirror ? qb : qa;
          const int rotated = mirror ? qa : qb;
          c2.measure(measured, cbit0);  // signed measurement: ±1 multiplies the estimate
          c2.gate(quarter_rotation(alpha), {rotated}, "Rz(aπ/2)");
        };
        out.push_back(std::move(t));
      }
    }
  }
  return out;
}

Qpd cut_zz_gate(const Circuit& circ, std::size_t pos, int qa, int qb, Real theta,
                const std::string& observable) {
  const int n = circ.n_qubits();
  QCUT_CHECK(circ.n_cbits() == 0, "cut_zz_gate: input circuit must be purely quantum");
  QCUT_CHECK(qa >= 0 && qa < n && qb >= 0 && qb < n && qa != qb,
             "cut_zz_gate: invalid gate qubits");
  QCUT_CHECK(pos <= circ.size(), "cut_zz_gate: position out of range");
  QCUT_CHECK(static_cast<int>(observable.size()) == n,
             "cut_zz_gate: observable length must match circuit width");
  for (const auto& op : circ.ops()) {
    QCUT_CHECK(op.kind == OpKind::kUnitary || op.kind == OpKind::kInitialize,
               "cut_zz_gate: input circuit must contain only unitary/initialize ops");
  }

  std::vector<std::pair<int, char>> sites;
  for (int q = 0; q < n; ++q) {
    const char p = observable[static_cast<std::size_t>(q)];
    if (p == 'I') {
      continue;
    }
    QCUT_CHECK(p == 'X' || p == 'Y' || p == 'Z', "cut_zz_gate: invalid Pauli character");
    sites.emplace_back(q, p);
  }
  QCUT_CHECK(!sites.empty(), "cut_zz_gate: observable is the identity");

  Qpd qpd;
  for (const GateCutTerm& g : zz_gate_cut_terms(theta)) {
    const int n_cbits = g.cbits + static_cast<int>(sites.size());
    Circuit c(n, n_cbits);
    std::size_t idx = 0;
    for (; idx < pos; ++idx) {
      const Operation& op = circ.ops()[idx];
      if (op.kind == OpKind::kInitialize) {
        c.initialize(op.qubits, op.init_state(), op.label);
      } else {
        c.gate(op.matrix(), op.qubits, op.label);
      }
    }
    g.append(c, qa, qb, /*cbit0=*/0);
    for (; idx < circ.size(); ++idx) {
      const Operation& op = circ.ops()[idx];
      if (op.kind == OpKind::kInitialize) {
        c.initialize(op.qubits, op.init_state(), op.label);
      } else {
        c.gate(op.matrix(), op.qubits, op.label);
      }
    }

    QpdTerm term;
    term.estimate_cbits.clear();
    if (g.sign_cbit >= 0) {
      term.estimate_cbits.push_back(g.sign_cbit);  // the signed measurement
    }
    int cbit = g.cbits;
    for (const auto& [q, p] : sites) {
      append_pauli_measurement(c, q, p, cbit);
      term.estimate_cbits.push_back(cbit);
      ++cbit;
    }
    term.coefficient = g.coefficient;
    term.circuit = std::move(c);
    term.entangled_pairs = 0;
    term.label = g.label;
    qpd.add(std::move(term));
  }
  return qpd;
}

Qpd cut_cz_gate(const Circuit& circ, std::size_t pos, int qa, int qb,
                const std::string& observable) {
  // CZ = e^{-iπ/4} e^{-iπ/4 ZZ} (e^{iπ/4 Z} ⊗ e^{iπ/4 Z}); the global phase
  // is irrelevant to expectation values. Insert the local corrections at
  // `pos`, then cut the remaining ZZ rotation right after them.
  Circuit with_local(circ.n_qubits(), 0);
  std::size_t idx = 0;
  for (; idx < pos; ++idx) {
    const Operation& op = circ.ops()[idx];
    if (op.kind == OpKind::kInitialize) {
      with_local.initialize(op.qubits, op.init_state(), op.label);
    } else {
      with_local.gate(op.matrix(), op.qubits, op.label);
    }
  }
  const Matrix local = gates::rz(-kPi / 2.0);  // e^{iπ/4 Z}
  with_local.gate(local, {qa}, "Rz");
  with_local.gate(local, {qb}, "Rz");
  for (; idx < circ.size(); ++idx) {
    const Operation& op = circ.ops()[idx];
    if (op.kind == OpKind::kInitialize) {
      with_local.initialize(op.qubits, op.init_state(), op.label);
    } else {
      with_local.gate(op.matrix(), op.qubits, op.label);
    }
  }
  return cut_zz_gate(with_local, pos + 2, qa, qb, -kPi / 4.0, observable);
}

Matrix zz_gate_cut_reconstruct(Real theta, const Matrix& rho) {
  QCUT_CHECK(rho.rows() == 4 && rho.cols() == 4, "zz_gate_cut_reconstruct: two-qubit input");
  Matrix acc(4, 4);
  Matrix p0(2, 2), p1(2, 2);
  p0(0, 0) = Cplx{1, 0};
  p1(1, 1) = Cplx{1, 0};
  for (const GateCutTerm& g : zz_gate_cut_terms(theta)) {
    Matrix branch(4, 4);
    if (g.label == "zz-identity") {
      branch = rho;
    } else if (g.label == "zz-both-z") {
      const Matrix zz = kron(pauli_z(), pauli_z());
      branch = zz * rho * zz;
    } else {
      const bool mirror = g.label.find("mirror") != std::string::npos;
      const Real alpha = g.label.find("plus") != std::string::npos ? 1.0 : -1.0;
      const Matrix rot = quarter_rotation(alpha);
      // Signed measurement: Σ_a a K_a ρ K_a†.
      for (int a = 0; a < 2; ++a) {
        const Matrix proj = a == 0 ? p0 : p1;
        const Matrix k = mirror ? kron(rot, proj) : kron(proj, rot);
        const Real sign = a == 0 ? 1.0 : -1.0;
        branch += Cplx{sign, 0.0} * (k * rho * k.dagger());
      }
    }
    acc += Cplx{g.coefficient, 0.0} * branch;
  }
  return acc;
}

}  // namespace qcut
