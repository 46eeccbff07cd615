// The Section-IV experiment harness (Fig. 6), reusable by the benches, the
// integration tests, and downstream users.
//
// Procedure (verbatim from the paper):
//  * sample a Haar-random unitary W [Mezzadri], input state W|0⟩;
//  * exact reference ⟨Z⟩ = ⟨0|W†ZW|0⟩;
//  * cut the wire with the Theorem-2 QPD at entanglement level f(Φk);
//  * allocate a fixed total shot budget across the three subcircuits
//    proportionally to their coefficients;
//  * error ε = |⟨Z⟩_sample − ⟨Z⟩| (Eq. 28), averaged over the random states.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "qcut/cut/wire_cut.hpp"
#include "qcut/qpd/shot_alloc.hpp"

namespace qcut {

struct Fig6Config {
  int n_states = 1000;  ///< paper: 1000 Haar-random inputs
  std::vector<std::uint64_t> shot_grid = {250,  500,  750,  1000, 1500, 2000,
                                          2500, 3000, 3500, 4000, 4500, 5000};
  std::vector<Real> overlaps = {0.5, 0.6, 0.7, 0.8, 0.9, 1.0};  ///< f(Φk)
  char observable = 'Z';
  AllocRule rule = AllocRule::kProportional;
  std::uint64_t seed = 20240320;  ///< arXiv v2 date, for reproducibility
  /// Protocol factory per overlap; defaults to the Theorem-2 NME cut.
  std::function<std::shared_ptr<const WireCutProtocol>(Real f)> protocol_factory;
};

struct Fig6Row {
  Real f = 0.0;
  std::uint64_t shots = 0;
  Real mean_error = 0.0;  ///< ⟨ε⟩ over the random states
  Real sem = 0.0;         ///< standard error of that mean
  Real kappa = 0.0;       ///< protocol overhead at this f
};

/// Runs the full sweep; rows ordered by (overlap, shots). The states are
/// distributed over request_pool(); per-state RNG streams make the result
/// independent of thread count.
std::vector<Fig6Row> run_fig6(const Fig6Config& cfg);

/// Renders rows as an aligned text table (one block per overlap).
std::string format_fig6(const std::vector<Fig6Row>& rows);

}  // namespace qcut
