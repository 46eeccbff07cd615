// Runs a scope's parallel work on a chosen pool. Shared by the tests and the
// benches; header-only and free of test-framework dependencies.
#pragma once

#include "qcut/common/request_context.hpp"
#include "qcut/common/threadpool.hpp"

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

}  // namespace qcut::testing
