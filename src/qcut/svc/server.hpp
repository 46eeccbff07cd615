// qcut-server: a daemon answering wire-protocol estimation requests over TCP.
//
// Architecture (one process, three thread populations):
//  * the main thread starts the server and, on SIGTERM, drains and stops it;
//  * one I/O thread runs an epoll(7) loop over the listen socket, every
//    (non-blocking) connection and an eventfd. It accepts, reads frames,
//    answers admission, drain and metrics itself, and submits each admitted
//    estimate to the ThreadPool. A connection has one request outstanding
//    at a time, so pipelined frames wait in the kernel and are answered in
//    order. Threads do not grow with connections; the POOL bounds
//    estimation concurrency;
//  * pool workers execute requests. A finishing request posts its encoded
//    answer through the eventfd, and the loop writes it out. The loop
//    installs the request's cancel token and this pool in its
//    RequestContext before submitting, and the pool carries that context
//    into the task. The process runs one pool: inside a request, the
//    engine's terms and the statevector sweeps of wide states (the only
//    parallel levels) name request_pool(), which is this pool, so they run
//    inline on the request's worker. Each request runs single-threaded, so
//    request throughput scales with workers without nested-parallelism
//    deadlocks. Results stay bit-identical to in-process runs because
//    randomness is per-batch counter-streams, never scheduling-dependent.
//
// Admission control: at most `max_inflight` requests may be queued-or-running
// on the pool. Beyond that the server answers kRetryAfter with a suggested
// backoff derived from an EWMA of recent service times — the client-visible
// form of the pool's queue pressure. Coalescing: fully identical in-flight
// requests (same QASM, observable, seed, budget — the whole wire payload)
// are merged; followers wait on the leader's run and are answered from it,
// response flagged `coalesced`. Only exact twins merge, so coalescing can
// never change any answer.
//
// Caching: the server owns a process-lifetime ServiceCaches (parsed QASM
// circuits, plans, warm QPD+backend+exact-reference entries) — see
// svc/cache.hpp.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qcut/common/cancel.hpp"
#include "qcut/common/threadpool.hpp"
#include "qcut/svc/cache.hpp"
#include "qcut/svc/wire.hpp"

namespace qcut {
namespace svc {

/// Merges concurrent identical work: the first join() of a key leads (its
/// caller runs the work and must complete() the key); later joins while the
/// key is in flight follow and are answered from the leader's run. Waiters
/// are ids (the server's connection ids). Not synchronized: the server's I/O
/// thread is its only user. Unit-testable without sockets (test_service.cpp).
///
/// Cancellation-aware: a waiter that stops caring (its client hung up) calls
/// leave(). A follower leaving never cancels anything — the run is cancelled
/// only when the LAST waiter leaves (via the CancelToken the leader
/// registered at join time).
class CoalescingMap {
 public:
  /// Adds `waiter` to the key's waiters; true when it leads. `cancel`
  /// (leader-supplied; ignored for followers) is the token leave() fires
  /// when the last waiter leaves mid-flight.
  bool join(const std::string& key, std::uint64_t waiter,
            std::shared_ptr<CancelToken> cancel = nullptr) {
    const auto [it, leads] = inflight_.try_emplace(key);
    if (leads) {
      it->second.cancel = std::move(cancel);
    }
    it->second.waiters.push_back(waiter);
    return leads;
  }

  /// `waiter` abandoned the key. When no waiters remain and the key is
  /// still in flight, the leader's token is cancelled — nobody is left to
  /// read the answer. No-op after complete() or for an unknown waiter.
  void leave(const std::string& key, std::uint64_t waiter) {
    const auto it = inflight_.find(key);
    if (it == inflight_.end()) {
      return;
    }
    std::vector<std::uint64_t>& waiters = it->second.waiters;
    const auto pos = std::find(waiters.begin(), waiters.end(), waiter);
    if (pos == waiters.end()) {
      return;
    }
    waiters.erase(pos);
    if (waiters.empty() && it->second.cancel != nullptr) {
      it->second.cancel->cancel();
    }
  }

  /// Leader-only, once the run has finished: removes the key and returns
  /// the waiters still attached, in join order. New joins start fresh.
  std::vector<std::uint64_t> complete(const std::string& key) {
    const auto it = inflight_.find(key);
    if (it == inflight_.end()) {
      return {};
    }
    std::vector<std::uint64_t> waiters = std::move(it->second.waiters);
    inflight_.erase(it);
    return waiters;
  }

  std::size_t inflight() const { return inflight_.size(); }

  /// Current waiter count of an in-flight key (0 when absent). Test hook.
  std::size_t waiters(const std::string& key) const {
    const auto it = inflight_.find(key);
    return it == inflight_.end() ? 0 : it->second.waiters.size();
  }

 private:
  struct Entry {
    std::vector<std::uint64_t> waiters;
    std::shared_ptr<CancelToken> cancel;
  };

  std::map<std::string, Entry> inflight_;
};

struct ServerConfig {
  std::string host = "127.0.0.1";
  int port = 0;              ///< 0 → ephemeral; read the bound port from port()
  /// Estimation workers. 0 → hardware concurrency (the ThreadPool default).
  std::size_t workers = 0;
  /// Admission cap on queued-or-running requests. 0 → 4 × workers.
  std::size_t max_inflight = 0;
  ServiceCachesConfig caches;
  /// Server-side ceiling on client deadlines, in ms: requests asking for
  /// more are clamped down, requests asking for nothing get exactly this.
  /// 0 → no ceiling (client deadlines pass through; none is imposed).
  std::uint64_t max_deadline_ms = 0;
  /// Default graceful-drain budget for drain(): how long in-flight requests
  /// may run to completion before the rest are cancelled.
  std::uint64_t drain_ms = 2000;
  /// Test hook: sleep this long inside each request's execution, to make
  /// admission rejection and coalescing windows deterministic in tests.
  std::uint64_t debug_request_delay_ms = 0;
};

class QcutServer {
 public:
  explicit QcutServer(ServerConfig cfg = {});
  ~QcutServer();

  QcutServer(const QcutServer&) = delete;
  QcutServer& operator=(const QcutServer&) = delete;

  /// Binds, listens, and starts the I/O thread. Throws qcut::Error on
  /// socket failures (port in use, bad host).
  void start();

  /// The bound port (after start(); resolves port = 0 to the actual one).
  int port() const noexcept { return port_; }

  /// Stops accepting, cancels every request, closes every connection, waits
  /// until no pool task can still touch the server, and joins the I/O
  /// thread. Idempotent; also run by the destructor.
  void stop();

  /// Graceful shutdown (the SIGTERM path): stop accepting new connections,
  /// answer new estimate requests on live connections with a retryable
  /// `overloaded` rejection, let in-flight work finish for up to `budget_ms`
  /// (0 → cfg.drain_ms), then cancel the stragglers — their clients receive
  /// clean `cancelled` responses, never a silently dropped socket — and
  /// stop(). Returns true when every request finished or was answered within
  /// the budget (plus a bounded cancellation-settle grace).
  bool drain(std::uint64_t budget_ms = 0);

  /// True once drain() or stop() has begun: no new estimate is admitted.
  bool draining() const noexcept { return phase_.load() != Phase::kServing; }

  ServiceCaches& caches() noexcept { return caches_; }

  /// The /metrics-style plaintext dump served on kMetricsRequest: one
  /// "qcut_<counter> <value>" line per obs counter plus service gauges
  /// (inflight, cache sizes). Exposed for tests.
  std::string metrics_text() const;

 private:
  /// Shutdown steps, in order; the I/O thread acts on each at its next wake.
  enum class Phase { kServing, kDraining, kCancelling, kStopping };

  /// One client connection. Only the I/O thread touches it.
  struct Conn {
    int fd = -1;
    std::uint32_t events = 0;       ///< the epoll interest set registered now
    std::vector<std::uint8_t> in;   ///< received bytes not yet served
    std::vector<std::uint8_t> out;  ///< answer bytes not yet sent
    /// Coalescing key of the outstanding estimate; empty when none is.
    std::string key;
    /// Input arrived while a request is outstanding: only a hang-up is
    /// watched until it is answered.
    bool parked = false;
    /// The peer shut its sending side with pipelined bytes still unread.
    bool peer_shut = false;
  };

  /// An admitted estimate on the pool. Only the I/O thread touches it.
  struct Job {
    std::string key;
    std::uint64_t leader = 0;  ///< the connection whose request started it
    std::shared_ptr<CancelToken> cancel;
    /// Holds the pool wrapper's exception when the task body never ran.
    std::future<void> done;
  };

  using ConnIt = std::unordered_map<std::uint64_t, Conn>::iterator;

  void io_loop();
  void accept_connections();
  void on_connection(std::uint64_t id, std::uint32_t events);
  /// Sends what `c` owes, then serves its buffered frames while it has no
  /// request outstanding. False when the connection must close.
  bool advance(std::uint64_t id, Conn& c);
  /// Admission, coalescing and submission of one estimate request.
  void start_estimate(std::uint64_t id, Conn& c, const std::vector<std::uint8_t>& payload);
  /// Answers the waiters of every job whose task has finished.
  void finish_jobs();
  /// Registers the interest set `c`'s state calls for, or closes it when
  /// `keep` is false.
  void settle(ConnIt it, bool keep);
  void close_connection(ConnIt it);
  void set_phase(Phase phase);
  WireEstimateResponse execute(const WireEstimateRequest& req, std::uint64_t serial);

  ServerConfig cfg_;
  ThreadPool pool_;
  ServiceCaches caches_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: posted answers and phase changes
  int port_ = 0;
  std::atomic<Phase> phase_{Phase::kServing};
  /// Admitted estimates queued or running on the pool (jobs_.size(),
  /// readable from any thread).
  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::uint64_t> request_serial_{0};
  /// EWMA of request service time in microseconds (α = 1/8), seeded by the
  /// first completed request; the retry-after hint when admission rejects.
  std::atomic<std::uint64_t> ewma_service_us_{0};

  /// Set by the I/O thread while draining: every admitted request is
  /// answered and every answer byte sent.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  bool idle_ = false;

  /// Encoded answers of finished tasks, by request serial; empty when the
  /// task body never ran. Pool workers post, the I/O thread takes.
  std::mutex finished_mu_;
  std::vector<std::pair<std::uint64_t, std::optional<std::vector<std::uint8_t>>>> finished_;

  // I/O thread state: connections by id (ids are never reused, so an event
  // for a closed connection cannot reach a new socket on its fd), the jobs
  // by request serial, and the coalescing of their keys.
  std::unordered_map<std::uint64_t, Conn> conns_;
  std::uint64_t next_conn_id_ = 2;  ///< 0 and 1 tag the listen socket and the eventfd
  std::map<std::uint64_t, Job> jobs_;
  CoalescingMap coalescer_;

  std::thread io_thread_;
};

/// Blocking client for the wire protocol. One connection, sequential
/// request/response; use one client per thread for concurrency.
class QcutClient {
 public:
  /// Connects immediately; throws qcut::Error on failure.
  QcutClient(const std::string& host, int port);
  ~QcutClient();

  QcutClient(const QcutClient&) = delete;
  QcutClient& operator=(const QcutClient&) = delete;

  /// Sends the request and waits for the response. Server-side failures
  /// come back as status = kError (or a decoded error frame), transport
  /// failures throw qcut::Error.
  WireEstimateResponse estimate(const WireEstimateRequest& req);

  /// Fetches the plaintext metrics dump.
  std::string metrics();

 private:
  Frame roundtrip(const std::vector<std::uint8_t>& bytes);

  int fd_ = -1;
};

}  // namespace svc
}  // namespace qcut
