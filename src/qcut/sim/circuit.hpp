// Circuit intermediate representation.
//
// A Circuit is an ordered list of operations over `n_qubits` quantum wires
// and `n_cbits` classical bits. Mid-circuit measurement and classically
// controlled gates are first-class citizens because every cut fragment the
// protocols emit contains them (teleportation corrections, measure-and-
// prepare branches).
//
// Qubit convention: big-endian, qubit 0 is the most significant basis-index
// bit — the top wire of the paper's circuit diagrams.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "qcut/common/small_vector.hpp"
#include "qcut/linalg/matrix.hpp"
#include "qcut/sim/gate_class.hpp"

namespace qcut {

enum class OpKind {
  kUnitary,      ///< unitary gate on listed qubits
  kCondUnitary,  ///< unitary applied iff the classical bit equals 1
  kMeasure,      ///< Z-basis measurement of one qubit into a classical bit
  kReset,        ///< collapse one qubit and set it to |0⟩
  kInitialize,   ///< set listed (fresh / reset) qubits to a given pure state
};

/// The fixed (parameter-free) gates of the qelib1 set. Each has one shared,
/// pre-classified payload per process, so appending one allocates nothing
/// and classifies nothing.
enum class FixedGate : std::uint8_t {
  kH, kX, kY, kZ, kS, kSdg, kT, kTdg, kCx, kCz, kSwap, kCcx, kCswap,
};

/// The immutable payload of one op: a gate's matrix and its structure class,
/// or an initialize op's target state.
struct OpPayload {
  Matrix matrix;
  /// Structure of `matrix` (diagonal / permutation / generic), classified
  /// once when the op enters a Circuit; the statevector engine dispatches its
  /// specialized kernels on this tag instead of re-inspecting the matrix.
  GateClass gclass;
  Vector init_state;
};

/// One circuit op. Its payload is immutable and shared by every copy of the
/// op: a spliced QPD copies each host op and each cut branch's ops into many
/// terms, and the fragment splitter copies them again, so a copy costs one
/// reference-count bump instead of allocations.
struct Operation {
  OpKind kind = OpKind::kUnitary;
  QubitList qubits;
  int cbit = -1;  ///< destination for kMeasure, condition for kCondUnitary
  std::string label;

  /// Gate for kUnitary / kCondUnitary; empty for other kinds.
  const Matrix& matrix() const noexcept { return payload().matrix; }
  const GateClass& gclass() const noexcept { return payload().gclass; }
  /// Target state for kInitialize; empty for other kinds.
  const Vector& init_state() const noexcept { return payload().init_state; }

  /// Makes the op's payload the gate `u` with its classification.
  void set_gate(Matrix u);
  /// As set_gate(u), with the class given instead of classified (a caller
  /// that wants the generic kernels passes GateClass{}).
  void set_gate(Matrix u, GateClass cls);
  /// Makes the op's payload the shared payload of the fixed gate `g`.
  void set_gate(FixedGate g);
  void set_init_state(Vector state);

 private:
  const OpPayload& payload() const noexcept {
    return payload_ != nullptr ? *payload_ : empty_payload();
  }
  static const OpPayload& empty_payload() noexcept;

  std::shared_ptr<const OpPayload> payload_;
};

class Circuit {
 public:
  /// IR width cap. The IR is an op list — no amplitudes — so it only needs to
  /// keep basis-index arithmetic (Index{1} << n) well defined; Index is a
  /// *signed* 64-bit type, so the largest shift that stays positive is 62.
  /// Simulability is an engine property, not an IR property: monolithic
  /// statevector execution caps at Statevector::kMaxQubits, wider circuits
  /// run fragment-locally (qcut/cut/fragment.hpp).
  static constexpr int kMaxQubits = 62;

  /// Default: a trivial one-qubit, one-cbit circuit (placeholder for
  /// aggregate members that are assigned before use).
  Circuit() : Circuit(1, 1) {}
  Circuit(int n_qubits, int n_cbits);
  explicit Circuit(int n_qubits) : Circuit(n_qubits, 0) {}

  int n_qubits() const noexcept { return n_qubits_; }
  int n_cbits() const noexcept { return n_cbits_; }
  const std::vector<Operation>& ops() const noexcept { return ops_; }
  std::size_t size() const noexcept { return ops_.size(); }

  // -- builder interface (returns *this for chaining) -----------------------
  Circuit& gate(const Matrix& u, const QubitList& qubits, std::string label = "U");
  Circuit& gate_if(int cbit, const Matrix& u, const QubitList& qubits,
                   std::string label = "U?");
  /// gate() / gate_if() of the fixed gate `g`'s matrix under its standard
  /// label ("H", "CX", "CCX", ...; "?"-suffixed when conditioned), except
  /// that every op of `g` shares one payload.
  Circuit& fixed_gate(FixedGate g, const QubitList& qubits);
  Circuit& fixed_gate_if(int cbit, FixedGate g, const QubitList& qubits);

  Circuit& h(int q);
  Circuit& x(int q);
  Circuit& z(int q);
  Circuit& s(int q);
  Circuit& sdg(int q);
  Circuit& t(int q);
  Circuit& rx(int q, Real theta);
  Circuit& ry(int q, Real theta);
  Circuit& rz(int q, Real theta);
  Circuit& cx(int control, int target);
  Circuit& cz(int control, int target);
  Circuit& swap_gate(int a, int b);

  Circuit& x_if(int cbit, int q);
  Circuit& z_if(int cbit, int q);

  Circuit& measure(int q, int cbit);
  Circuit& reset(int q);
  /// Prepares `state` on the listed qubits, which must currently be in |0..0⟩
  /// (true for fresh wires or immediately after reset/measure-to-zero).
  Circuit& initialize(const QubitList& qubits, const Vector& state,
                      std::string label = "init");

  /// Appends all ops of `other` with qubit/cbit index offsets.
  Circuit& append(const Circuit& other, int qubit_offset = 0, int cbit_offset = 0);

  /// Appends a fully formed Operation (validated against this circuit's
  /// registers), preserving its gate classification. This is the remap path
  /// of the fragment splitter: replaying ops into per-fragment circuits must
  /// not re-classify (or re-copy-check) every gadget matrix per QPD term.
  Circuit& push_op(Operation op);

  /// Reserves room for `n_ops` ops (builders that know their size up front).
  void reserve(std::size_t n_ops) { ops_.reserve(n_ops); }

  /// Total unitary of a measurement-free circuit (throws otherwise).
  Matrix to_unitary() const;

  /// Number of measurement operations.
  int count_measurements() const;

  /// One-line-per-op textual rendering for logs and examples.
  std::string to_string() const;

 private:
  void check_qubits(const QubitList& qubits) const;
  void check_cbit(int cbit) const;
  Circuit& append_fixed(FixedGate g, const QubitList& qubits, OpKind kind, int cbit);

  int n_qubits_;
  int n_cbits_;
  std::vector<Operation> ops_;
};

}  // namespace qcut
