// Standard gate matrices. Conventions match Nielsen & Chuang; the controlled
// gates use big-endian qubit order (first listed qubit = control = most
// significant bit), consistent with linalg::embed.
#pragma once

#include "qcut/linalg/matrix.hpp"

namespace qcut::gates {

const Matrix& h();
const Matrix& x();
const Matrix& y();
const Matrix& z();
const Matrix& s();
const Matrix& sdg();
const Matrix& t();
const Matrix& tdg();

Matrix rx(Real theta);
Matrix ry(Real theta);
Matrix rz(Real theta);
Matrix phase(Real lambda);
/// General single-qubit gate U(θ, φ, λ) in the OpenQASM convention.
Matrix u3(Real theta, Real phi, Real lambda);

const Matrix& cx();
const Matrix& cz();
const Matrix& swap();
const Matrix& ccx();    ///< Toffoli: (control, control, target)
const Matrix& cswap();  ///< Fredkin: (control, target, target)

/// Controlled-U for a single-qubit U (control = first qubit).
Matrix controlled(const Matrix& u);

/// State-preparation unitary: maps |0...0⟩ to the given normalized state.
/// Built by completing the state column to a unitary via Householder QR.
Matrix prep_unitary(const Vector& state);

}  // namespace qcut::gates
