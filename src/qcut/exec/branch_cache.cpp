#include "qcut/exec/branch_cache.hpp"

#include "qcut/cut/fragment.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/obs/trace.hpp"

namespace qcut {

BranchCache::BranchCache(const Qpd& qpd) : qpd_(&qpd), prob_(qpd.size(), 0.0) {
  QCUT_CHECK(!qpd.empty(), "BranchCache: empty QPD");
}

BranchCache::BranchCache(const Qpd& qpd, std::vector<Real> prob_one)
    : qpd_(&qpd), prob_(std::move(prob_one)) {
  QCUT_CHECK(!qpd.empty(), "BranchCache: empty QPD");
  QCUT_CHECK(prob_.size() == qpd.size(), "BranchCache: prob/term count mismatch");
  ready_.store(true, std::memory_order_release);
  computed_.store(prob_.size(), std::memory_order_relaxed);
}

void BranchCache::prepare() const {
  if (ready_.load(std::memory_order_acquire)) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (ready_.load(std::memory_order_relaxed)) {
    return;  // computed while this call waited
  }
  obs::TraceSpan span("branch_cache.enumerate", static_cast<std::uint64_t>(prob_.size()));
  prob_ = FragmentVariants(*qpd_).evaluate_all();
  computed_.store(prob_.size(), std::memory_order_relaxed);
  obs::count(obs::Counter::kBranchCacheMiss, prob_.size());
  ready_.store(true, std::memory_order_release);
}

Real BranchCache::prob_one(std::size_t term) const {
  QCUT_CHECK(term < prob_.size(), "BranchCache::prob_one: term out of range");
  prepare();
  obs::count(obs::Counter::kBranchCacheHit);
  return prob_[term];
}

std::vector<Real> BranchCache::all_prob_one() const {
  prepare();
  return prob_;
}

}  // namespace qcut
