// What a request's work carries to every thread it runs on: the cancel token
// its quantum boundaries poll (common/cancel.hpp), the metrics sink its
// counters land in (obs/metrics.hpp) and the pool its parallel work runs on
// (common/threadpool.hpp). ThreadPool::submit captures the submitter's
// context and installs it around the task, naming the pool it runs on.
//
// Choosing a pool for a run:
//   ThreadPool pool(4);
//   RequestContext ctx = current_request_context();
//   ctx.pool = &pool;
//   const ScopedRequestContext scope(ctx);
//   ... svc::estimate(req) ...   // its terms fan out over `pool`
#pragma once

namespace qcut {

class CancelToken;
class ThreadPool;
namespace obs {
class MetricsSink;
}

struct RequestContext {
  CancelToken* cancel = nullptr;
  obs::MetricsSink* sink = nullptr;
  /// nullptr → global_pool(); read through request_pool().
  ThreadPool* pool = nullptr;
};

namespace detail {
// Exposed only so cancel_poll and obs::count can inline their fast paths.
// Inline with a constant initializer: gcc 12's UBSan flags reads of an
// `extern thread_local` through its TLS wrapper function as null loads.
inline thread_local RequestContext t_context;
}  // namespace detail

inline const RequestContext& current_request_context() noexcept { return detail::t_context; }

/// RAII thread-local context scope (nests; the previous context is restored
/// on exit). To change one member, install an edited copy of
/// current_request_context().
class ScopedRequestContext {
 public:
  explicit ScopedRequestContext(const RequestContext& ctx) noexcept
      : prev_(detail::t_context) {
    detail::t_context = ctx;
  }
  ~ScopedRequestContext() { detail::t_context = prev_; }

  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;

 private:
  RequestContext prev_;
};

}  // namespace qcut
