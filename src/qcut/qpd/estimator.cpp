#include "qcut/qpd/estimator.hpp"

#include "qcut/cut/fragment.hpp"
#include "qcut/obs/trace.hpp"

namespace qcut {

std::vector<Real> exact_term_prob_one(const Qpd& qpd) {
  obs::TraceSpan span("estimator.exact_probs", static_cast<std::uint64_t>(qpd.size()));
  return FragmentVariants(qpd).evaluate_all();
}

Real exact_value(const Qpd& qpd) {
  Real acc = 0.0;
  const auto probs = exact_term_prob_one(qpd);
  for (std::size_t i = 0; i < qpd.size(); ++i) {
    const Real mean = 1.0 - 2.0 * probs[i];
    acc += qpd.terms()[i].coefficient * mean;
  }
  return acc;
}

Real sampled_estimator_variance(const Qpd& qpd) {
  const Real v = exact_value(qpd);
  const Real k = qpd.kappa();
  return k * k - v * v;
}

}  // namespace qcut
