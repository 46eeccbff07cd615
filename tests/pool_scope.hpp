// Runs a scope's parallel work on a chosen pool. Shared by the tests and the
// benches; header-only and free of test-framework dependencies.
#pragma once

#include <cstddef>
#include <vector>

#include "qcut/common/request_context.hpp"
#include "qcut/common/threadpool.hpp"
#include "qcut/cut/fragment.hpp"

namespace qcut::testing {

/// Installs the current RequestContext with its pool replaced by `pool`, so
/// request_pool() names `pool` until the scope ends.
class ScopedPool {
 public:
  explicit ScopedPool(ThreadPool& pool) : scope_(with_pool(pool)) {}

 private:
  static RequestContext with_pool(ThreadPool& pool) {
    RequestContext ctx = current_request_context();
    ctx.pool = &pool;
    return ctx;
  }

  ScopedRequestContext scope_;
};

/// Every term's P(−1) as a cold BranchCache::prepare() computes it, with the
/// fan-out forced whatever fanout_pays says: the terms that introduce a
/// variant spread over `pool` (inline on a 1-worker pool).
inline std::vector<Real> fanned_out_prob_one(const Qpd& qpd, ThreadPool& pool) {
  const ScopedPool scope(pool);
  const FragmentVariants variants(qpd);
  std::vector<FragmentTable> tables(variants.size());
  const std::vector<std::size_t>& terms = variants.introducing_terms();
  pool.parallel_for(0, terms.size(), [&](std::size_t i) { variants.evaluate_new(terms[i], tables); });
  return variants.recombine_all(tables);
}

}  // namespace qcut::testing
