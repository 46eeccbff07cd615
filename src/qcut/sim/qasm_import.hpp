// OpenQASM 2.0 import — the inverse bridge of qasm.hpp: externally authored
// circuits (benchmark suites, other toolchains, our own exports) become
// Circuit IR that the planner can analyze, cut, and fragment-execute.
//
// Supported subset (what `to_qasm` emits plus what standard benchmark
// circuits use):
//   * header `OPENQASM 2.0;`, `include "...";` (accepted, ignored — the
//     qelib1 gate set below is built in),
//   * `qreg`/`creg` declarations (multiple registers map to contiguous
//     wire/cbit ranges in declaration order),
//   * named gates h, x, y, z, s, sdg, t, tdg, cx (alias CX), cz, swap,
//     rx, ry, rz, u1, u2, u3 (alias U), id (a no-op, dropped),
//   * `gate name(params) args { ... }` macro definitions, expanded at each
//     call site with parameter/argument substitution,
//   * whole-register broadcast for gate, measure, and reset operands,
//   * `measure q[i] -> c[j];`, `reset q[i];`, `barrier ...;` (dropped),
//   * `if (c == 1) <gate-op>;` classical control on a size-1 creg,
//   * constant-expression angles: literals, `pi`, + - * / ^, parentheses,
//     unary minus, and the qasm builtins sin/cos/tan/exp/ln/sqrt.
//
// Rejected with a `<source>:<line>:<col>: ...` diagnostic: other OPENQASM
// versions, `opaque` declarations, conditions on multi-bit registers or
// against values other than 1 (the IR conditions single bits on 1),
// conditioned measure/reset, out-of-range indices, arity/parameter-count
// mismatches, and any gate name that is neither built in nor a previously
// defined macro.
//
// Cost. Import is the first serial stage of every QASM request, so it does
// no per-token or per-op work beyond what the Circuit needs: tokens are views
// into the source, each number is parsed once from its spelling, gate names
// resolve through one table lookup, parameter expressions compile to postfix
// code (a gate body's parameters bound to indices, so a macro call expands
// without building maps), and the fixed gates (h ... swap, ccx, cswap) append
// one shared, pre-classified payload (Circuit::fixed_gate) instead of
// classifying and allocating per op. The parameterized gates still build and
// classify their matrix per op.
#pragma once

#include <string>

#include "qcut/sim/circuit.hpp"

namespace qcut {

/// Parses an OpenQASM 2.0 program into a Circuit. `source_name` prefixes
/// diagnostics (a file path, or a label like "<string>").
Circuit import_qasm(const std::string& source, const std::string& source_name = "<qasm>");

/// Reads and parses a .qasm file; throws qcut::Error when unreadable.
Circuit import_qasm_file(const std::string& path);

/// Copy of `c` without its trailing run of measure ops (benchmark circuits
/// conventionally end by measuring every qubit; the planner and the
/// observable-estimation path want the unitary part). Measurements *followed*
/// by other ops — mid-circuit measurement, feed-forward — are kept. The copy
/// keeps the classical bits only when a kept op is a measure or a
/// classically conditioned gate; otherwise it has none, so a fully measured
/// circuit comes back purely quantum (cuttable). Kept ops share their
/// payloads and classifications with `c`'s. The number of dropped ops is
/// written to `*n_stripped` when non-null.
Circuit strip_trailing_measurements(const Circuit& c, int* n_stripped = nullptr);

/// Structural equivalence up to global phase per operation: identical
/// qubit/cbit counts and op sequences (kind, qubits, cbit), with unitary
/// matrices and initialize states compared up to a global phase within
/// `tol`. The round-trip oracle: import(export(C)) must satisfy this against
/// C. On mismatch, a one-line reason is written to `*why` when non-null.
bool circuits_equivalent(const Circuit& a, const Circuit& b, Real tol = 1e-9,
                         std::string* why = nullptr);

/// b ≈ e^{iφ} a entrywise for some phase φ, within `tol`. The comparison
/// circuits_equivalent applies per op, exposed for whole-circuit unitary
/// cross-checks (the u3 serialization drops global phase by construction).
bool matrix_equal_up_to_phase(const Matrix& a, const Matrix& b, Real tol = 1e-9);

}  // namespace qcut
