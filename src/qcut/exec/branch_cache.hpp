// BranchCache: one exact branch enumeration per QPD term, amortized over the
// whole run.
//
// The Monte-Carlo estimators only ever consume one number per term: the exact
// single-shot probability that the term's ±1 outcome is −1 (parity of the
// estimate cbits equals 1). Enumerating the term circuit's measurement
// branches once (run_branches) yields that probability exactly; every
// subsequent shot of the term is then a Bernoulli draw, and a whole batch is
// a single binomial draw — statistically identical in law to per-shot
// statevector simulation at a tiny fraction of the cost.
//
// The cache is lazy and thread-safe: concurrent batches of the same term
// serialize on a per-term std::call_once, while distinct terms enumerate in
// parallel — each term has its own once-flag, and ExecutionEngine::run
// dispatches every term's first batch before any term's second, so the
// pool's workers start the distinct terms' enumerations together instead of
// queueing behind one term's flag.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "qcut/common/threadpool.hpp"
#include "qcut/qpd/qpd.hpp"

namespace qcut {

/// Exact P(outcome = −1) of one QPD term: the parity-one probability over the
/// term circuit's measurement branches.
Real term_prob_one(const QpdTerm& term);

class BranchCache {
 public:
  /// Computes a term's exact P(outcome = −1). The default enumerates the
  /// spliced term circuit (term_prob_one); FragmentBackend plugs in the
  /// fragment-local computation instead — same cache semantics either way.
  using ProbFn = std::function<Real(const QpdTerm&)>;

  /// Lazy cache: each term is enumerated on first use.
  explicit BranchCache(const Qpd& qpd);

  /// Lazy cache with a custom per-term probability computation.
  BranchCache(const Qpd& qpd, ProbFn prob_fn);

  /// Pre-seeded cache: `prob_one` (one entry per term) was computed
  /// externally; no enumeration will run.
  BranchCache(const Qpd& qpd, std::vector<Real> prob_one);

  const Qpd& qpd() const noexcept { return *qpd_; }

  /// Thread-safe: enumerates the term's branches on first call, then serves
  /// the cached probability.
  Real prob_one(std::size_t term) const;

  /// Forces every term and returns the full probability vector.
  std::vector<Real> all_prob_one() const;

  /// Forces every term, distributing the per-term enumerations across
  /// `pool`. Each term's value is computed exactly as prob_one would compute
  /// it (terms are independent), so the cache contents are bit-identical for
  /// any pool size. Falls back to the serial sweep from a pool worker.
  void prewarm(ThreadPool& pool) const;

  /// Number of terms enumerated so far (introspection for tests/benches).
  std::size_t computed_terms() const noexcept { return computed_.load(std::memory_order_relaxed); }

 private:
  const Qpd* qpd_;
  ProbFn prob_fn_;
  bool preseeded_ = false;
  mutable std::vector<Real> prob_;
  mutable std::unique_ptr<std::once_flag[]> once_;
  mutable std::atomic<std::size_t> computed_{0};
};

}  // namespace qcut
