// Exact-probability oracles for the tests and benches: whole-circuit
// enumeration of a spliced term, and the serial fragment evaluator with one
// full enumeration per (fragment, read assignment). The library has one
// exact path, BatchedBranchBackend's fragment evaluation
// (fragment_term_prob_one); these two compute the same P(−1) independently
// of its prefix sharing, trailing-measure fold, fusion and pooled
// recombination, so tests pin it against them and bench_sim_perf times it
// against the serial one. Header-only and free of test-framework
// dependencies.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "qcut/cut/fragment.hpp"
#include "qcut/qpd/qpd.hpp"
#include "qcut/sim/executor.hpp"

namespace qcut::testing {

/// Exact P(outcome = −1) of one QPD term: the parity-one probability of its
/// estimate cbits over the measurement branches of the whole spliced term
/// circuit, unfused.
inline Real term_prob_one(const QpdTerm& term) {
  Real acc = 0.0;
  for (const Branch& b : run_branches(term.circuit)) {
    int parity = 0;
    for (const int cb : term.estimate_cbits) {
      parity ^= b.cbits[static_cast<std::size_t>(cb)];
    }
    if (parity == 1) {
      acc += b.prob;
    }
  }
  return acc;
}

/// P(outcome = −1) of a split term, the slow way: per fragment, one full
/// branch enumeration per assignment of the foreign bits it reads, folded
/// into a table P_F(write bits, estimate parity | read bits); then the chain
/// rule P = Σ_σ Π_F P_F over every assignment σ of the cross-fragment bits,
/// with a running XOR of the fragments' parities. Strictly serial.
inline Real fragment_term_prob_one_baseline(const FragmentSplit& split) {
  const std::vector<int>& cross = split.cross_cbits;
  const auto cross_bit = [&cross](std::uint64_t sigma, int cbit) {
    const auto pos = std::lower_bound(cross.begin(), cross.end(), cbit) - cross.begin();
    return static_cast<std::size_t>((sigma >> pos) & 1);
  };

  // tables[f][read assignment][write pattern * 2 + estimate parity]
  std::vector<std::vector<std::vector<Real>>> tables(split.fragments.size());
  for (std::size_t f = 0; f < split.fragments.size(); ++f) {
    const TermFragment& tf = split.fragments[f];
    const std::size_t r = tf.reads.size();
    const std::size_t w = tf.writes.size();
    Vector initial(std::size_t{1} << tf.circuit.n_qubits(), Cplx{0.0, 0.0});
    initial[0] = Cplx{1.0, 0.0};
    std::vector<int> cbits(static_cast<std::size_t>(tf.circuit.n_cbits()), 0);
    tables[f].assign(std::size_t{1} << r, std::vector<Real>((std::size_t{1} << w) * 2, 0.0));
    for (std::size_t ra = 0; ra < (std::size_t{1} << r); ++ra) {
      for (std::size_t j = 0; j < r; ++j) {
        cbits[static_cast<std::size_t>(tf.reads[j])] = static_cast<int>((ra >> j) & 1);
      }
      for (const Branch& b : run_branches(tf.circuit, initial, cbits)) {
        std::size_t wp = 0;
        for (std::size_t j = 0; j < w; ++j) {
          wp |= static_cast<std::size_t>(b.cbits[static_cast<std::size_t>(tf.writes[j])] & 1)
                << j;
        }
        int parity = 0;
        for (const int e : tf.estimate_cbits) {
          parity ^= b.cbits[static_cast<std::size_t>(e)];
        }
        tables[f][ra][wp * 2 + static_cast<std::size_t>(parity)] += b.prob;
      }
    }
  }

  Real acc = 0.0;
  for (std::uint64_t sigma = 0; sigma < (std::uint64_t{1} << cross.size()); ++sigma) {
    Real p0 = 1.0;
    Real p1 = 0.0;
    for (std::size_t f = 0; f < split.fragments.size(); ++f) {
      const TermFragment& tf = split.fragments[f];
      std::size_t ra = 0;
      for (std::size_t j = 0; j < tf.reads.size(); ++j) {
        ra |= cross_bit(sigma, tf.reads[j]) << j;
      }
      std::size_t wp = 0;
      for (std::size_t j = 0; j < tf.writes.size(); ++j) {
        wp |= cross_bit(sigma, tf.writes[j]) << j;
      }
      const Real f0 = tables[f][ra][wp * 2];
      const Real f1 = tables[f][ra][wp * 2 + 1];
      const Real n0 = p0 * f0 + p1 * f1;
      const Real n1 = p0 * f1 + p1 * f0;
      p0 = n0;
      p1 = n1;
    }
    acc += p1;
  }
  return acc;
}

}  // namespace qcut::testing
