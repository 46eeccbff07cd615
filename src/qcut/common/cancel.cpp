#include "qcut/common/cancel.hpp"

#include "qcut/obs/metrics.hpp"

namespace qcut {
namespace detail {

void cancel_poll_slow(CancelToken* token) {
  if (token->cancelled()) {
    obs::count(obs::Counter::kCancellations);
    throw Error("cancelled: the request was cancelled mid-execution",
                ErrorCode::kCancelled);
  }
  if (token->deadline_passed()) {
    obs::count(obs::Counter::kDeadlinesExceeded);
    throw Error("deadline_exceeded: the request's deadline passed mid-execution",
                ErrorCode::kDeadlineExceeded);
  }
}

}  // namespace detail
}  // namespace qcut
