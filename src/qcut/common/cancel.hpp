// Cooperative cancellation and deadlines for long-running estimations.
//
// A CancelToken is a caller-owned flag + optional steady-clock deadline. The
// executing pipeline polls it at COARSE quantum boundaries only — planner DFS
// node expansion (strided), engine batch starts, fragment (fragment,
// read-assignment) units, branch-enumeration op steps — never inside SIMD
// kernels, so a poll costs one thread-local load and a predicted branch when
// no token is installed (same ≤2% discipline as QCUT_METRICS, gated by
// bench_sim_perf).
//
// The token travels in the thread's RequestContext (common/
// request_context.hpp): the service layer installs it around each request,
// and ThreadPool::submit carries it into every task the request fans out,
// so pool workers poll the same token as the spawning request.
//
// A tripped poll throws qcut::Error with ErrorCode::kCancelled or
// kDeadlineExceeded — cancellation rides the existing exception path out of
// parallel_for (lowest-index chunk's exception rethrown) and up to the
// service layer, which maps the code onto the wire.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "qcut/common/error.hpp"
#include "qcut/common/request_context.hpp"

namespace qcut {

/// Cancellation flag + optional deadline. Thread-safe: any thread may
/// cancel(); any number of threads may poll. The deadline is an absolute
/// steady-clock instant stored as nanoseconds-since-epoch (0 = none), so
/// queue wait counts against it from the moment it is set.
class CancelToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const noexcept { return cancelled_.load(std::memory_order_acquire); }

  /// Arms the deadline `ms` milliseconds from now. ms == 0 clears it.
  void set_deadline_after_ms(std::uint64_t ms) noexcept {
    if (ms == 0) {
      deadline_ns_.store(0, std::memory_order_relaxed);
      return;
    }
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    const std::int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
    deadline_ns_.store(now_ns + static_cast<std::int64_t>(ms) * 1000000,
                       std::memory_order_relaxed);
  }

  bool has_deadline() const noexcept {
    return deadline_ns_.load(std::memory_order_relaxed) != 0;
  }

  bool deadline_passed() const noexcept {
    const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d == 0) {
      return false;
    }
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count() >= d;
  }

  /// kOk, or the code a poll against this token would throw right now.
  ErrorCode state() const noexcept {
    if (cancelled()) {
      return ErrorCode::kCancelled;
    }
    if (deadline_passed()) {
      return ErrorCode::kDeadlineExceeded;
    }
    return ErrorCode::kOk;
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> deadline_ns_{0};
};

namespace detail {
/// Out-of-line slow path: checks the flag, then the clock; throws the typed
/// Error (and bumps the matching obs counter) when the token tripped.
void cancel_poll_slow(CancelToken* token);
}  // namespace detail

/// The token governing the current thread's work, or nullptr.
inline CancelToken* current_cancel_token() noexcept { return detail::t_context.cancel; }

/// Quantum-boundary poll. No token installed → one thread-local load and a
/// predicted branch. Token installed → flag check + one steady_clock read;
/// throws qcut::Error{kCancelled | kDeadlineExceeded} when tripped.
inline void cancel_poll() {
  if (CancelToken* token = detail::t_context.cancel) {
    detail::cancel_poll_slow(token);
  }
}

}  // namespace qcut
