#include "qcut/sim/circuit.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "qcut/linalg/kron.hpp"
#include "qcut/sim/gates.hpp"

namespace qcut {

namespace {

/// A payload-free op (measure / reset) on one qubit.
Operation simple_op(OpKind kind, int q, int cbit, const char* label) {
  Operation op;
  op.kind = kind;
  op.qubits = {q};
  op.cbit = cbit;
  op.label = label;
  return op;
}

}  // namespace

void Operation::set_gate(Matrix u) {
  GateClass cls = classify_gate(u);
  set_gate(std::move(u), std::move(cls));
}

void Operation::set_gate(Matrix u, GateClass cls) {
  payload_ = std::make_shared<const OpPayload>(OpPayload{std::move(u), std::move(cls), {}});
}

void Operation::set_init_state(Vector state) {
  payload_ = std::make_shared<const OpPayload>(OpPayload{{}, {}, std::move(state)});
}

const OpPayload& Operation::empty_payload() noexcept {
  static const OpPayload empty;
  return empty;
}

Circuit::Circuit(int n_qubits, int n_cbits) : n_qubits_(n_qubits), n_cbits_(n_cbits) {
  QCUT_CHECK(n_qubits >= 1 && n_qubits <= kMaxQubits, "Circuit: unsupported qubit count");
  QCUT_CHECK(n_cbits >= 0, "Circuit: negative classical bit count");
}

void Circuit::check_qubits(const QubitList& qubits) const {
  QCUT_CHECK(!qubits.empty(), "Circuit: operation needs at least one qubit");
  for (int q : qubits) {
    QCUT_CHECK(q >= 0 && q < n_qubits_, "Circuit: qubit index out of range");
    QCUT_CHECK(std::count(qubits.begin(), qubits.end(), q) == 1, "Circuit: duplicate qubit");
  }
}

void Circuit::check_cbit(int cbit) const {
  QCUT_CHECK(cbit >= 0 && cbit < n_cbits_, "Circuit: classical bit index out of range");
}

Circuit& Circuit::gate(const Matrix& u, const QubitList& qubits, std::string label) {
  check_qubits(qubits);
  const Index dim = Index{1} << static_cast<Index>(qubits.size());
  QCUT_CHECK(u.rows() == dim && u.cols() == dim, "Circuit::gate: matrix/qubit-count mismatch");
  Operation op;
  op.kind = OpKind::kUnitary;
  op.qubits = qubits;
  op.label = std::move(label);
  op.set_gate(u);
  ops_.push_back(std::move(op));
  return *this;
}

Circuit& Circuit::gate_if(int cbit, const Matrix& u, const QubitList& qubits,
                          std::string label) {
  check_qubits(qubits);
  check_cbit(cbit);
  const Index dim = Index{1} << static_cast<Index>(qubits.size());
  QCUT_CHECK(u.rows() == dim && u.cols() == dim, "Circuit::gate_if: matrix/qubit-count mismatch");
  Operation op;
  op.kind = OpKind::kCondUnitary;
  op.qubits = qubits;
  op.cbit = cbit;
  op.label = std::move(label);
  op.set_gate(u);
  ops_.push_back(std::move(op));
  return *this;
}

Circuit& Circuit::h(int q) { return fixed_gate(FixedGate::kH, {q}); }
Circuit& Circuit::x(int q) { return fixed_gate(FixedGate::kX, {q}); }
Circuit& Circuit::z(int q) { return fixed_gate(FixedGate::kZ, {q}); }
Circuit& Circuit::s(int q) { return fixed_gate(FixedGate::kS, {q}); }
Circuit& Circuit::sdg(int q) { return fixed_gate(FixedGate::kSdg, {q}); }
Circuit& Circuit::t(int q) { return fixed_gate(FixedGate::kT, {q}); }
Circuit& Circuit::rx(int q, Real theta) { return gate(gates::rx(theta), {q}, "Rx"); }
Circuit& Circuit::ry(int q, Real theta) { return gate(gates::ry(theta), {q}, "Ry"); }
Circuit& Circuit::rz(int q, Real theta) { return gate(gates::rz(theta), {q}, "Rz"); }
Circuit& Circuit::cx(int control, int target) {
  return fixed_gate(FixedGate::kCx, {control, target});
}
Circuit& Circuit::cz(int control, int target) {
  return fixed_gate(FixedGate::kCz, {control, target});
}
Circuit& Circuit::swap_gate(int a, int b) { return fixed_gate(FixedGate::kSwap, {a, b}); }

Circuit& Circuit::x_if(int cbit, int q) { return fixed_gate_if(cbit, FixedGate::kX, {q}); }
Circuit& Circuit::z_if(int cbit, int q) { return fixed_gate_if(cbit, FixedGate::kZ, {q}); }

Circuit& Circuit::measure(int q, int cbit) {
  check_qubits({q});
  check_cbit(cbit);
  ops_.push_back(simple_op(OpKind::kMeasure, q, cbit, "measure"));
  return *this;
}

Circuit& Circuit::reset(int q) {
  check_qubits({q});
  ops_.push_back(simple_op(OpKind::kReset, q, -1, "reset"));
  return *this;
}

Circuit& Circuit::initialize(const QubitList& qubits, const Vector& state,
                             std::string label) {
  check_qubits(qubits);
  const Index dim = Index{1} << static_cast<Index>(qubits.size());
  QCUT_CHECK(static_cast<Index>(state.size()) == dim,
             "Circuit::initialize: state/qubit-count mismatch");
  QCUT_CHECK(approx_eq(vec_norm(state), 1.0, 1e-9), "Circuit::initialize: unnormalized state");
  Operation op;
  op.kind = OpKind::kInitialize;
  op.qubits = qubits;
  op.label = std::move(label);
  op.set_init_state(state);
  ops_.push_back(std::move(op));
  return *this;
}

Circuit& Circuit::append(const Circuit& other, int qubit_offset, int cbit_offset) {
  QCUT_CHECK(qubit_offset >= 0 && qubit_offset + other.n_qubits_ <= n_qubits_,
             "Circuit::append: qubit range does not fit");
  QCUT_CHECK((cbit_offset >= 0 && cbit_offset + other.n_cbits_ <= n_cbits_) ||
                 other.n_cbits_ == 0,
             "Circuit::append: classical range does not fit");
  for (Operation op : other.ops_) {
    for (int& q : op.qubits) {
      q += qubit_offset;
    }
    if (op.cbit >= 0) {
      op.cbit += cbit_offset;
    }
    ops_.push_back(std::move(op));
  }
  return *this;
}

Circuit& Circuit::push_op(Operation op) {
  check_qubits(op.qubits);
  const Index dim = Index{1} << static_cast<Index>(op.qubits.size());
  switch (op.kind) {
    case OpKind::kUnitary:
      QCUT_CHECK(op.matrix().rows() == dim && op.matrix().cols() == dim,
                 "Circuit::push_op: matrix/qubit-count mismatch");
      break;
    case OpKind::kCondUnitary:
      QCUT_CHECK(op.matrix().rows() == dim && op.matrix().cols() == dim,
                 "Circuit::push_op: matrix/qubit-count mismatch");
      check_cbit(op.cbit);
      break;
    case OpKind::kMeasure:
      QCUT_CHECK(op.qubits.size() == 1, "Circuit::push_op: measure takes one qubit");
      check_cbit(op.cbit);
      break;
    case OpKind::kReset:
      QCUT_CHECK(op.qubits.size() == 1, "Circuit::push_op: reset takes one qubit");
      break;
    case OpKind::kInitialize:
      QCUT_CHECK(static_cast<Index>(op.init_state().size()) == dim,
                 "Circuit::push_op: state/qubit-count mismatch");
      break;
  }
  ops_.push_back(std::move(op));
  return *this;
}

Matrix Circuit::to_unitary() const {
  QCUT_CHECK(n_qubits_ <= 20, "Circuit::to_unitary: circuit too wide for a dense unitary");
  Matrix acc = Matrix::identity(Index{1} << n_qubits_);
  for (const auto& op : ops_) {
    QCUT_CHECK(op.kind == OpKind::kUnitary,
               "Circuit::to_unitary: circuit contains non-unitary operations");
    acc = embed(op.matrix(), op.qubits, n_qubits_) * acc;
  }
  return acc;
}

int Circuit::count_measurements() const {
  int n = 0;
  for (const auto& op : ops_) {
    n += (op.kind == OpKind::kMeasure) ? 1 : 0;
  }
  return n;
}

std::string Circuit::to_string() const {
  std::ostringstream os;
  os << "Circuit(" << n_qubits_ << " qubits, " << n_cbits_ << " cbits):\n";
  for (const auto& op : ops_) {
    os << "  ";
    switch (op.kind) {
      case OpKind::kUnitary:
        os << op.label << " q[";
        break;
      case OpKind::kCondUnitary:
        os << op.label << " if c" << op.cbit << " q[";
        break;
      case OpKind::kMeasure:
        os << "measure -> c" << op.cbit << " q[";
        break;
      case OpKind::kReset:
        os << "reset q[";
        break;
      case OpKind::kInitialize:
        os << op.label << " q[";
        break;
    }
    for (std::size_t i = 0; i < op.qubits.size(); ++i) {
      os << op.qubits[i] << (i + 1 < op.qubits.size() ? "," : "");
    }
    os << "]\n";
  }
  return os.str();
}

namespace {

struct FixedGateInfo {
  const Matrix& (*matrix)();
  const char* label;
};

/// Indexed by FixedGate.
constexpr std::array<FixedGateInfo, 13> kFixedGates = {{
    {gates::h, "H"},
    {gates::x, "X"},
    {gates::y, "Y"},
    {gates::z, "Z"},
    {gates::s, "S"},
    {gates::sdg, "Sdg"},
    {gates::t, "T"},
    {gates::tdg, "Tdg"},
    {gates::cx, "CX"},
    {gates::cz, "CZ"},
    {gates::swap, "SWAP"},
    {gates::ccx, "CCX"},
    {gates::cswap, "CSWAP"},
}};

}  // namespace

void Operation::set_gate(FixedGate g) {
  // One payload per fixed gate, classified once per process.
  static const std::array<std::shared_ptr<const OpPayload>, kFixedGates.size()> payloads = [] {
    std::array<std::shared_ptr<const OpPayload>, kFixedGates.size()> out;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const Matrix& u = kFixedGates[i].matrix();
      out[i] = std::make_shared<const OpPayload>(OpPayload{u, classify_gate(u), {}});
    }
    return out;
  }();
  payload_ = payloads[static_cast<std::size_t>(g)];
}

Circuit& Circuit::fixed_gate(FixedGate g, const QubitList& qubits) {
  return append_fixed(g, qubits, OpKind::kUnitary, -1);
}

Circuit& Circuit::fixed_gate_if(int cbit, FixedGate g, const QubitList& qubits) {
  return append_fixed(g, qubits, OpKind::kCondUnitary, cbit);
}

Circuit& Circuit::append_fixed(FixedGate g, const QubitList& qubits, OpKind kind, int cbit) {
  // The checks of gate() / gate_if(), in their order.
  check_qubits(qubits);
  if (kind == OpKind::kCondUnitary) {
    check_cbit(cbit);
  }
  Operation op;
  op.set_gate(g);
  QCUT_CHECK(op.matrix().rows() == Index{1} << static_cast<Index>(qubits.size()),
             "Circuit::fixed_gate: matrix/qubit-count mismatch");
  op.kind = kind;
  op.qubits = qubits;
  op.cbit = cbit;
  op.label = kFixedGates[static_cast<std::size_t>(g)].label;
  if (kind == OpKind::kCondUnitary) {
    op.label += '?';
  }
  ops_.push_back(std::move(op));
  return *this;
}

}  // namespace qcut
