#include "qcut/exec/branch_cache.hpp"

#include "qcut/obs/metrics.hpp"
#include "qcut/obs/trace.hpp"
#include "qcut/sim/executor.hpp"
#include "qcut/sim/fusion.hpp"

namespace qcut {

Real term_prob_one(const QpdTerm& term) {
  const auto parity_one = [&term](const Circuit& c) {
    Real acc = 0.0;
    for (const auto& b : run_branches(c)) {
      int parity = 0;
      for (int cb : term.estimate_cbits) {
        parity ^= b.cbits[static_cast<std::size_t>(cb)];
      }
      if (parity == 1) {
        acc += b.prob;
      }
    }
    return acc;
  };
  // Fuse before enumerating when the circuit is wide enough to pay for it
  // (sim/fusion.hpp's width rule): branch enumeration pays every op once per
  // live branch, so on wide circuits composing 1q runs and diagonal runs up
  // front multiplies out.
  return fusion_pays(term.circuit.n_qubits()) ? parity_one(fuse_circuit(term.circuit))
                                              : parity_one(term.circuit);
}

BranchCache::BranchCache(const Qpd& qpd) : BranchCache(qpd, ProbFn(&term_prob_one)) {}

BranchCache::BranchCache(const Qpd& qpd, ProbFn prob_fn)
    : qpd_(&qpd),
      prob_fn_(std::move(prob_fn)),
      prob_(qpd.size(), 0.0),
      once_(new std::once_flag[qpd.size()]) {
  QCUT_CHECK(!qpd.empty(), "BranchCache: empty QPD");
  QCUT_CHECK(prob_fn_ != nullptr, "BranchCache: null probability function");
}

BranchCache::BranchCache(const Qpd& qpd, std::vector<Real> prob_one)
    : qpd_(&qpd), preseeded_(true), prob_(std::move(prob_one)) {
  QCUT_CHECK(!qpd.empty(), "BranchCache: empty QPD");
  QCUT_CHECK(prob_.size() == qpd.size(), "BranchCache: prob/term count mismatch");
  computed_.store(prob_.size(), std::memory_order_relaxed);
}

Real BranchCache::prob_one(std::size_t term) const {
  QCUT_CHECK(term < prob_.size(), "BranchCache::prob_one: term out of range");
  if (!preseeded_) {
    bool computed_here = false;
    std::call_once(once_[term], [this, term, &computed_here] {
      computed_here = true;
      obs::TraceSpan span("branch_cache.enumerate", static_cast<std::uint64_t>(term));
      prob_[term] = prob_fn_(qpd_->terms()[term]);
      computed_.fetch_add(1, std::memory_order_relaxed);
    });
    obs::count(computed_here ? obs::Counter::kBranchCacheMiss
                             : obs::Counter::kBranchCacheHit);
  } else {
    obs::count(obs::Counter::kBranchCacheHit);
  }
  return prob_[term];
}

std::vector<Real> BranchCache::all_prob_one() const {
  std::vector<Real> all(prob_.size());
  for (std::size_t i = 0; i < prob_.size(); ++i) {
    all[i] = prob_one(i);
  }
  return all;
}

void BranchCache::prewarm(ThreadPool& pool) const {
  if (preseeded_ || prob_.size() < 2 || pool.size() < 2 || pool.on_worker_thread()) {
    (void)all_prob_one();
    return;
  }
  pool.parallel_for(0, prob_.size(), [this](std::size_t i) { (void)prob_one(i); });
}

}  // namespace qcut
