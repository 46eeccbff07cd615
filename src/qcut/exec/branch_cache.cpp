#include "qcut/exec/branch_cache.hpp"

#include "qcut/obs/metrics.hpp"
#include "qcut/obs/trace.hpp"

namespace qcut {

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

}  // namespace qcut
