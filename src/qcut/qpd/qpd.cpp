#include "qcut/qpd/qpd.hpp"

#include <cmath>

#include "qcut/common/error.hpp"

namespace qcut {

Qpd& Qpd::add(QpdTerm term) {
  QCUT_CHECK(has_term_circuits_, "Qpd::add: a factored QPD takes no more terms");
  QCUT_CHECK(std::abs(term.coefficient) > 0.0, "Qpd::add: zero coefficient");
  QCUT_CHECK(!term.estimate_cbits.empty(), "Qpd::add: no estimate cbits");
  for (int cb : term.estimate_cbits) {
    QCUT_CHECK(cb >= 0 && cb < term.circuit.n_cbits(), "Qpd::add: estimate cbit out of range");
  }
  terms_.push_back(std::move(term));
  layout_.reset();
  has_term_circuits_ = true;
  return *this;
}

void Qpd::set_layout(std::shared_ptr<const CutLayout> layout, bool term_circuits) {
  QCUT_CHECK(layout != nullptr || term_circuits, "Qpd::set_layout: a factored QPD needs its layout");
  layout_ = std::move(layout);
  has_term_circuits_ = term_circuits;
}

Real Qpd::kappa() const {
  Real k = 0.0;
  for (const auto& t : terms_) {
    k += std::abs(t.coefficient);
  }
  return k;
}

Real Qpd::coefficient_sum() const {
  Real s = 0.0;
  for (const auto& t : terms_) {
    s += t.coefficient;
  }
  return s;
}

std::vector<Real> Qpd::probabilities() const {
  const Real k = kappa();
  QCUT_CHECK(k > 0.0, "Qpd: empty decomposition");
  std::vector<Real> p;
  p.reserve(terms_.size());
  for (const auto& t : terms_) {
    p.push_back(std::abs(t.coefficient) / k);
  }
  return p;
}

std::vector<Real> Qpd::signs() const {
  std::vector<Real> s;
  s.reserve(terms_.size());
  for (const auto& t : terms_) {
    s.push_back(t.coefficient >= 0.0 ? 1.0 : -1.0);
  }
  return s;
}

Real Qpd::expected_pairs_per_sample() const {
  const auto p = probabilities();
  Real acc = 0.0;
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    acc += p[i] * static_cast<Real>(terms_[i].entangled_pairs);
  }
  return acc;
}

}  // namespace qcut
