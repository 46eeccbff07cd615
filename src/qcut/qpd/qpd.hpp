// Quasiprobability decompositions (Sec. II-B).
//
// A Qpd is a list of terms E = Σ c_i F_i where each F_i is realized by a
// concrete circuit. Executing term i and recording a ±1-valued measurement
// into `estimate_cbit` yields the Monte-Carlo estimator of Eq. (12):
//   Tr[O E(ρ)] = κ Σ_i p_i sign(c_i) E[outcome_i],  κ = Σ|c_i|, p_i = |c_i|/κ.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "qcut/sim/circuit.hpp"

namespace qcut {

struct CutLayout;

struct QpdTerm {
  Real coefficient = 0.0;  ///< signed c_i
  Circuit circuit;         ///< realizes F_i including input prep + O-measurement
  /// Classical bits whose parity carries the ±1 outcome of O: outcome =
  /// (−1)^{⊕ bits}. Single-wire cuts use one bit; an n-wire cut measuring
  /// Z⊗…⊗Z uses one bit per receiver wire.
  std::vector<int> estimate_cbits{0};
  int entangled_pairs = 0; ///< NME resource states consumed per execution
  std::string label;
};

class Qpd {
 public:
  Qpd() = default;

  Qpd& add(QpdTerm term);

  const std::vector<QpdTerm>& terms() const noexcept { return terms_; }
  std::size_t size() const noexcept { return terms_.size(); }
  bool empty() const noexcept { return terms_.empty(); }

  /// Sampling overhead κ = Σ |c_i| (the variance inflation factor; shot cost
  /// scales as κ²).
  Real kappa() const;

  /// Σ c_i — equals 1 for a decomposition of a trace-preserving channel.
  Real coefficient_sum() const;

  /// Sampling probabilities p_i = |c_i| / κ.
  std::vector<Real> probabilities() const;

  /// sign(c_i) ∈ {-1, +1} per term.
  std::vector<Real> signs() const;

  /// Expected number of entangled pairs consumed per QPD sample:
  /// Σ p_i · pairs_i. For the Theorem-2 cut this equals 2(k²+1)/(k+1)²·…/κ —
  /// see bench_pair_consumption.
  Real expected_pairs_per_sample() const;

  /// The cut layout the terms were built from (cut/circuit_cutter.hpp), or
  /// null for a hand-built QPD. add() drops it: the terms then no longer
  /// match it.
  const std::shared_ptr<const CutLayout>& layout() const noexcept { return layout_; }
  /// False for a factored QPD, whose terms carry registers but no ops.
  bool has_term_circuits() const noexcept { return has_term_circuits_; }
  /// Attaches the layout of every term added so far (the cutter's hook).
  void set_layout(std::shared_ptr<const CutLayout> layout, bool term_circuits);

 private:
  std::vector<QpdTerm> terms_;
  std::shared_ptr<const CutLayout> layout_;
  bool has_term_circuits_ = true;
};

}  // namespace qcut
