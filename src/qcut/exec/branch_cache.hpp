// BranchCache: one exact P(−1) per QPD term, amortized over the whole run.
//
// The Monte-Carlo estimators only ever consume one number per term: the exact
// single-shot probability that the term's ±1 outcome is −1 (parity of the
// estimate cbits equals 1). prepare() computes all of them at once, and every
// shot of a term is then a Bernoulli draw, so a whole batch is a single
// binomial draw at a tiny fraction of the cost of per-shot statevector
// simulation. Rng::binomial uses a normal approximation at n·q ≥ 30, so the
// draw has the per-shot mean but not exactly its law (ROADMAP item 6).
//
// prepare() evaluates each fragment variant of the QPD once
// (FragmentVariants::evaluate_all, cut/fragment.hpp): the terms that
// introduce a variant run inline in term order, or, when fanout_pays(work),
// as one parallel_for on request_pool(); each builds and evaluates only its
// new variants. Then every term's P(−1) is recombined in term order. It
// runs once per cache, thread-safely: concurrent callers wait for the first
// (a pool worker runs it inline), and a call that throws (cancellation, an
// injected fault) leaves the next call to start over. So a warm cache runs
// no pool task.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "qcut/qpd/qpd.hpp"

namespace qcut {

class BranchCache {
 public:
  /// Lazy cache: prepare() computes every term's probability.
  explicit BranchCache(const Qpd& qpd);

  /// Pre-seeded cache: `prob_one` (one entry per term) was computed
  /// externally; no enumeration will run.
  BranchCache(const Qpd& qpd, std::vector<Real> prob_one);

  const Qpd& qpd() const noexcept { return *qpd_; }

  /// Computes every term's P(−1) unless done; counts one kBranchCacheMiss
  /// per term it computes.
  void prepare() const;

  /// The term's probability (after prepare()); counts a kBranchCacheHit.
  Real prob_one(std::size_t term) const;

  /// prepare(), then the full probability vector.
  std::vector<Real> all_prob_one() const;

  /// Number of terms computed so far (introspection for tests/benches).
  std::size_t computed_terms() const noexcept { return computed_.load(std::memory_order_relaxed); }

 private:
  const Qpd* qpd_;
  mutable std::mutex mu_;  ///< held by the one prepare() that computes
  mutable std::vector<Real> prob_;
  /// Set once prob_ is complete. Not std::call_once: a throwing call must
  /// leave the next one free to start over, and in a ThreadSanitizer build
  /// a call_once whose callable had thrown hung the next call.
  mutable std::atomic<bool> ready_{false};
  mutable std::atomic<std::size_t> computed_{0};
};

}  // namespace qcut
