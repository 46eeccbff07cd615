// BranchCache: one exact P(−1) per QPD term, amortized over the whole run.
//
// The Monte-Carlo estimators only ever consume one number per term: the exact
// single-shot probability that the term's ±1 outcome is −1 (parity of the
// estimate cbits equals 1). The cache computes it once per term through a
// caller-supplied ProbFn — BatchedBranchBackend plugs in fragment-local
// branch enumeration — and every later shot of the term is a Bernoulli
// draw, so a whole batch is a single binomial draw: the same law as per-shot
// statevector simulation at a tiny fraction of the cost.
//
// The cache is lazy and thread-safe: concurrent batches of the same term
// serialize on a per-term std::call_once, while distinct terms compute in
// parallel — each term has its own once-flag, and ExecutionEngine::run
// dispatches every term's first batch before any term's second, so the
// pool's workers start the distinct terms' computations together instead of
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

class BranchCache {
 public:
  /// Computes a term's exact P(outcome = −1).
  using ProbFn = std::function<Real(const QpdTerm&)>;

  /// Lazy cache: each term's probability is computed by `prob_fn` on first
  /// use.
  BranchCache(const Qpd& qpd, ProbFn prob_fn);

  /// Pre-seeded cache: `prob_one` (one entry per term) was computed
  /// externally; no enumeration will run.
  BranchCache(const Qpd& qpd, std::vector<Real> prob_one);

  const Qpd& qpd() const noexcept { return *qpd_; }

  /// Thread-safe: computes the term's probability on first call, then serves
  /// the cached value.
  Real prob_one(std::size_t term) const;

  /// Forces every term and returns the full probability vector.
  std::vector<Real> all_prob_one() const;

  /// Forces every term, distributing the per-term computations across
  /// `pool`. Each term's value is computed exactly as prob_one would compute
  /// it (terms are independent), so the cache contents are bit-identical for
  /// any pool size. Falls back to the serial sweep from a pool worker.
  void prewarm(ThreadPool& pool) const;

  /// Number of terms computed so far (introspection for tests/benches).
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
