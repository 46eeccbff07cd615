// Typed observable: a validated Pauli string, constructed once, passed by
// value everywhere a raw std::string used to travel.
//
// The estimation entry points (PlannedExecutor, plan_and_run, the service
// front door) historically took observables as bare strings and validated
// them deep inside the cutter, so a typo'd "ZZIZ" on a 5-qubit circuit
// surfaced as a cut_circuit error three layers down. Observable moves that
// validation to construction: parse() accepts exactly the characters
// {I, X, Y, Z}, records the qubit count, and round-trips through to_string()
// unchanged — so every layer below can trust the value and the service's
// wire protocol can ship it as its string form without a second validation
// pass on the far side.
#pragma once

#include <string>

namespace qcut {

class Observable {
 public:
  /// A single-qubit Z — the least surprising default for aggregate members.
  Observable() : pauli_("Z") {}

  /// Validates and wraps a Pauli string: one of {I, X, Y, Z} per qubit,
  /// length >= 1. Throws qcut::Error with the offending character and
  /// position otherwise. The identity string ("II…I") is representable —
  /// its expectation is trivially 1 — but the estimation pipeline rejects
  /// it downstream, where the trivial answer is called out explicitly.
  static Observable parse(const std::string& pauli);

  /// Z on every one of `n` qubits — the estimation default.
  static Observable z_all(int n);

  /// X on every one of `n` qubits.
  static Observable x_all(int n);

  int n_qubits() const noexcept { return static_cast<int>(pauli_.size()); }

  /// The Pauli letter acting on qubit `q` (bounds-checked).
  char pauli(int q) const;

  /// True when every factor is the identity.
  bool is_identity() const noexcept;

  /// The canonical string form; parse(to_string()) == *this exactly.
  const std::string& to_string() const noexcept { return pauli_; }

  friend bool operator==(const Observable& a, const Observable& b) noexcept {
    return a.pauli_ == b.pauli_;
  }
  friend bool operator!=(const Observable& a, const Observable& b) noexcept {
    return !(a == b);
  }

 private:
  explicit Observable(std::string pauli) : pauli_(std::move(pauli)) {}

  std::string pauli_;
};

}  // namespace qcut
