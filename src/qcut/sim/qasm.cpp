#include "qcut/sim/qasm.hpp"

#include <cmath>
#include <limits>
#include <locale>
#include <sstream>

#include "qcut/ent/schmidt.hpp"
#include "qcut/linalg/zyz.hpp"
#include "qcut/sim/gates.hpp"

namespace qcut {

namespace {

std::string fmt(Real x) { return qasm_format_real(x); }

// u3(θ, φ, λ) in QASM equals e^{iα} Rz(φ) Ry(θ) Rz(λ) up to global phase,
// so ZYZ angles map directly: θ = γ, φ = β, λ = δ.
void emit_u3(std::ostringstream& os, const Matrix& u, int q, const std::string& cond) {
  const ZyzAngles a = zyz_decompose(u);
  os << cond << "u3(" << fmt(a.gamma) << "," << fmt(a.beta) << "," << fmt(a.delta) << ") q["
     << q << "];\n";
}

// Fixed 1-qubit gates emit by qelib1 name instead of a synthesized u3: the
// importer maps the name back to the same gates::* matrix, so the QASM form
// of a builder circuit re-imports with bit-identical matrices — which is what
// lets the service's canonical circuit hash treat the two forms as one
// circuit. The matrix check guards against user ops that merely reuse a
// builder label.
bool emit_named_one_qubit(std::ostringstream& os, const Operation& op, const std::string& cond) {
  std::string label = op.label;
  if (!label.empty() && label.back() == '?') {
    label.pop_back();
  }
  struct Named {
    const char* label;
    const Matrix& (*matrix)();
    const char* name;
  };
  static const Named kFixed[] = {
      {"H", gates::h, "h"}, {"X", gates::x, "x"},       {"Y", gates::y, "y"},
      {"Z", gates::z, "z"}, {"S", gates::s, "s"},       {"Sdg", gates::sdg, "sdg"},
      {"T", gates::t, "t"}, {"Tdg", gates::tdg, "tdg"},
  };
  for (const auto& f : kFixed) {
    if (label == f.label && op.matrix().approx_equal(f.matrix(), 1e-12)) {
      os << cond << f.name << " q[" << op.qubits[0] << "];\n";
      return true;
    }
  }
  return false;
}

// Named two-qubit gates the builder produces. Conditional variants carry the
// builder's '?' label suffix (e.g. an imported "if (c == 1) cx" is 'CX?');
// conditionality is already encoded in op.kind, so the suffix is ignored.
bool emit_named_two_qubit(std::ostringstream& os, const Operation& op, const std::string& cond) {
  std::string label = op.label;
  if (!label.empty() && label.back() == '?') {
    label.pop_back();
  }
  if (label == "CX") {
    os << cond << "cx q[" << op.qubits[0] << "],q[" << op.qubits[1] << "];\n";
    return true;
  }
  if (label == "CZ") {
    os << cond << "cz q[" << op.qubits[0] << "],q[" << op.qubits[1] << "];\n";
    return true;
  }
  if (label == "SWAP") {
    os << cond << "swap q[" << op.qubits[0] << "],q[" << op.qubits[1] << "];\n";
    return true;
  }
  return false;
}

/// Three-qubit qelib1 composites the importer predefines (ccx / cswap) emit
/// by name — the only 3q ops the exporter supports.
bool emit_named_three_qubit(std::ostringstream& os, const Operation& op,
                            const std::string& cond) {
  std::string label = op.label;
  if (!label.empty() && label.back() == '?') {
    label.pop_back();
  }
  const char* name = nullptr;
  if (label == "CCX" && op.matrix().approx_equal(gates::ccx(), 1e-12)) {
    name = "ccx";
  } else if (label == "CSWAP" && op.matrix().approx_equal(gates::cswap(), 1e-12)) {
    name = "cswap";
  }
  if (name == nullptr) {
    return false;
  }
  os << cond << name << " q[" << op.qubits[0] << "],q[" << op.qubits[1] << "],q["
     << op.qubits[2] << "];\n";
  return true;
}

// Synthesizes an arbitrary two-qubit pure state |ψ⟩ = (UA⊗UB)(cosθ|00⟩ +
// sinθ|11⟩) from its Schmidt decomposition: ry(2θ) on a, cx(a,b), then the
// local basis changes.
void emit_two_qubit_init(std::ostringstream& os, const Operation& op) {
  const SchmidtResult s = schmidt_decompose(op.init_state(), 1, 1);
  const Real theta = 2.0 * std::atan2(s.coeffs[1], s.coeffs[0]);
  const int qa = op.qubits[0];
  const int qb = op.qubits[1];
  os << "ry(" << fmt(theta) << ") q[" << qa << "];\n";
  os << "cx q[" << qa << "],q[" << qb << "];\n";
  Matrix ua(2, 2), ub(2, 2);
  for (Index r = 0; r < 2; ++r) {
    for (Index c = 0; c < 2; ++c) {
      ua(r, c) = s.basis_a(r, c);
      ub(r, c) = s.basis_b(r, c);
    }
  }
  if (!ua.approx_equal(Matrix::identity(2), 1e-12)) {
    emit_u3(os, ua, qa, "");
  }
  if (!ub.approx_equal(Matrix::identity(2), 1e-12)) {
    emit_u3(os, ub, qb, "");
  }
}

}  // namespace

// Round-trip-exact and locale-independent: max_digits10 significant digits
// guarantee strtod of the spelling recovers x bit-identically, and the
// classic locale pins '.' as the decimal separator whatever the
// process-global locale says.
std::string qasm_format_real(Real x) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os.precision(std::numeric_limits<Real>::max_digits10);
  os << x;
  return os.str();
}

std::string to_qasm(const Circuit& c) {
  std::ostringstream os;
  os << "OPENQASM 2.0;\n";
  os << "include \"qelib1.inc\";\n";
  os << "qreg q[" << c.n_qubits() << "];\n";
  if (c.n_cbits() > 0) {
    // One register per classical bit so `if` statements can address them
    // individually (QASM 2.0 conditions whole registers).
    for (int i = 0; i < c.n_cbits(); ++i) {
      os << "creg c" << i << "[1];\n";
    }
  }

  for (const auto& op : c.ops()) {
    std::string cond;
    if (op.kind == OpKind::kCondUnitary) {
      cond = "if (c" + std::to_string(op.cbit) + " == 1) ";
    }
    switch (op.kind) {
      case OpKind::kUnitary:
      case OpKind::kCondUnitary:
        if (op.qubits.size() == 1) {
          if (!emit_named_one_qubit(os, op, cond)) {
            emit_u3(os, op.matrix(), op.qubits[0], cond);
          }
        } else if (op.qubits.size() == 2 && emit_named_two_qubit(os, op, cond)) {
          // emitted
        } else if (op.qubits.size() == 3 && emit_named_three_qubit(os, op, cond)) {
          // emitted
        } else {
          throw Error("to_qasm: unsupported multi-qubit gate '" + op.label +
                      "' (decompose it first)");
        }
        break;
      case OpKind::kMeasure:
        os << "measure q[" << op.qubits[0] << "] -> c" << op.cbit << "[0];\n";
        break;
      case OpKind::kReset:
        os << "reset q[" << op.qubits[0] << "];\n";
        break;
      case OpKind::kInitialize:
        if (op.qubits.size() == 1) {
          // Single-qubit prep from |0⟩.
          emit_u3(os, gates::prep_unitary(op.init_state()), op.qubits[0], "");
        } else if (op.qubits.size() == 2) {
          emit_two_qubit_init(os, op);
        } else {
          throw Error("to_qasm: initialize on >2 qubits is not supported");
        }
        break;
    }
  }
  return os.str();
}

}  // namespace qcut
