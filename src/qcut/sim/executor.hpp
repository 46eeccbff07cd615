// Circuit execution.
//
// Two modes:
//  * run_shot / run_counts — stochastic shot execution on the Statevector
//    engine (what a quantum device does);
//  * run_branches / run_density — exact enumeration of all measurement
//    branches, giving the precise output distribution / channel action.
//    This is how the engine samples cheaply (one binomial draw per batch
//    from exact branch probabilities: per-shot simulation's mean, and its law
//    only where Rng::binomial is exact, see ROADMAP item 6) and how tests
//    verify channel identities without sampling noise.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "qcut/common/rng.hpp"
#include "qcut/sim/circuit.hpp"
#include "qcut/sim/density_matrix.hpp"
#include "qcut/sim/statevector.hpp"

namespace qcut {

struct ShotOutcome {
  std::vector<int> cbits;
  Statevector state;
};

/// Executes one stochastic shot. `initial` overrides the |0..0⟩ start state.
ShotOutcome run_shot(const Circuit& c, Rng& rng);
ShotOutcome run_shot(const Circuit& c, Rng& rng, const Vector& initial);

/// Histogram of classical-bit strings ("c0c1...") over `shots` executions.
std::map<std::string, std::uint64_t> run_counts(const Circuit& c, std::uint64_t shots, Rng& rng);

/// One exact measurement branch: joint probability, classical bits, state.
struct Branch {
  Real prob = 0.0;
  std::vector<int> cbits;
  Statevector state;
};

/// Enumerates all measurement/reset branches exactly. Branches with
/// probability below `prune_tol` are dropped; exactly-zero branches are
/// always dropped (even at prune_tol <= 0) so a p = 0 branch can never be
/// renormalized into NaNs.
std::vector<Branch> run_branches(const Circuit& c, Real prune_tol = 1e-14);
std::vector<Branch> run_branches(const Circuit& c, const Vector& initial,
                                 Real prune_tol = 1e-14);
/// As above with the classical register preset to `initial_cbits` (one entry
/// per cbit) instead of all-zero. Fragment-local execution uses this to fix
/// the bits a fragment reads but another fragment writes.
std::vector<Branch> run_branches(const Circuit& c, const Vector& initial,
                                 const std::vector<int>& initial_cbits,
                                 Real prune_tol = 1e-14);

/// Advances `branches` through ops [op_begin, op_end) of `c` in place: the
/// loop body of run_branches, exposed so enumeration can be *resumed* from a
/// saved intermediate set. The fragment fast path simulates each fragment's
/// unconditioned prefix once and re-runs only the suffix per read-assignment
/// through this hook. Measure/reset ops split branches and prune exactly as
/// run_branches does.
void advance_branches(std::vector<Branch>& branches, const Circuit& c, std::size_t op_begin,
                      std::size_t op_end, Real prune_tol = 1e-14);

/// Exact expectation of an n-qubit Pauli string on the final state, averaged
/// over measurement branches (i.e. the expectation a shot-average converges
/// to).
Real exact_expectation_pauli(const Circuit& c, const std::string& pauli);
Real exact_expectation_pauli(const Circuit& c, const std::string& pauli, const Vector& initial);

/// Exact P(cbit == 1) on the final classical state.
Real exact_prob_cbit(const Circuit& c, int cbit, const Vector& initial);

/// Exact expectation of (-1)^{cbit}: the ±1-valued estimator a Z-basis
/// measurement recorded into `cbit` produces.
Real exact_expectation_cbit_sign(const Circuit& c, int cbit, const Vector& initial);

/// Exact density-operator evolution of the circuit, averaging over all
/// measurement outcomes while honoring classically controlled gates. This is
/// the channel the circuit implements on its input (measurements traced out,
/// qubits kept).
Matrix run_density(const Circuit& c, const Matrix& initial_rho);

/// The channel a circuit implements on a subset of qubits: feeds in basis
/// states, evolves exactly, traces out `discard_qubits`. Input ordering is
/// the circuit's qubit order restricted to the non-discarded qubits.
Channel circuit_channel(const Circuit& c, const std::vector<int>& discard_qubits);

}  // namespace qcut
