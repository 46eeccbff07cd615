// qcut-server: a daemon answering wire-protocol estimation requests over TCP.
//
// Architecture (one process, three thread populations):
//  * the accept thread hands each connection to a connection thread
//    (connections are long-lived: a client streams many frames) and joins
//    the threads of connections that have ended;
//  * connection threads parse frames and submit request execution to the
//    shared ThreadPool, then block on the result — so the POOL, not the
//    connection count, bounds estimation concurrency;
//  * pool workers execute requests. The connection thread installs the
//    request's cancel token and this pool in its RequestContext before
//    submitting, and the pool carries that context into the task. The
//    process runs one pool: inside a request, the engine's batches and the
//    statevector sweeps of wide states (the only parallel levels) name
//    request_pool(), which is this pool, so they run inline on the
//    request's worker. Each request runs single-threaded, so request
//    throughput scales with workers without nested-parallelism deadlocks.
//    Results stay bit-identical to in-process runs because randomness is
//    per-batch counter-streams, never scheduling-dependent.
//
// Admission control: at most `max_inflight` requests may be queued-or-running
// on the pool. Beyond that the server answers kRetryAfter with a suggested
// backoff derived from an EWMA of recent service times — the client-visible
// form of the pool's queue pressure. Coalescing: fully identical in-flight
// requests (same QASM, observable, seed, budget — the whole wire key) are
// merged; followers attach to the leader's future and are answered by the
// same execution, response flagged `coalesced`. Only exact twins merge, so
// coalescing can never change any answer.
//
// Caching: the server owns a process-lifetime ServiceCaches (parsed QASM
// circuits, plans, warm QPD+backend+exact-reference entries, fragment
// skeletons) — see svc/cache.hpp.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "qcut/common/cancel.hpp"
#include "qcut/common/threadpool.hpp"
#include "qcut/svc/cache.hpp"
#include "qcut/svc/wire.hpp"

namespace qcut {
namespace svc {

/// Merges concurrent identical work: the first join() of a key is the
/// leader (it executes and must complete() or abandon() the key); later
/// joins while the key is in flight become followers sharing the leader's
/// future. Unit-testable without sockets (test_service.cpp).
///
/// Cancellation-aware: every join counts as a waiter; a waiter that stops
/// caring (client disconnected) calls leave(). A follower leaving never
/// cancels anything — the leader's execution is cancelled only when the LAST
/// waiter leaves (via the CancelToken the leader registered at join time).
template <typename R>
class CoalescingMap {
 public:
  struct Join {
    bool leader = false;
    std::shared_future<R> future;   ///< followers wait here
    std::promise<R> promise;        ///< leader fulfills this (leader only)
  };

  /// `cancel` (leader-supplied; ignored for followers) is the token leave()
  /// fires when the waiter count drops to zero mid-flight.
  Join join(const std::string& key, std::shared_ptr<CancelToken> cancel = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      ++it->second.waiters;
      Join j;
      j.leader = false;
      j.future = it->second.future;
      return j;
    }
    Join j;
    j.leader = true;
    j.future = j.promise.get_future().share();
    Entry entry;
    entry.future = j.future;
    entry.waiters = 1;
    entry.cancel = std::move(cancel);
    inflight_.emplace(key, std::move(entry));
    return j;
  }

  /// A waiter abandoned the key (its client hung up). When no waiters
  /// remain and the key is still in flight, the leader's token is cancelled
  /// — nobody is left to read the answer. No-op after complete().
  void leave(const std::string& key) {
    std::shared_ptr<CancelToken> fire;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = inflight_.find(key);
      if (it == inflight_.end() || it->second.waiters == 0) {
        return;
      }
      if (--it->second.waiters == 0) {
        fire = it->second.cancel;
      }
    }
    if (fire != nullptr) {
      fire->cancel();
    }
  }

  /// Leader-only: removes the key once its promise is fulfilled. Followers
  /// already holding the future are unaffected; new requests start fresh.
  void complete(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(key);
  }

  std::size_t inflight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return inflight_.size();
  }

  /// Current waiter count of an in-flight key (0 when absent). Test hook.
  std::size_t waiters(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(key);
    return it == inflight_.end() ? 0 : it->second.waiters;
  }

 private:
  struct Entry {
    std::shared_future<R> future;
    std::size_t waiters = 0;
    std::shared_ptr<CancelToken> cancel;
  };

  mutable std::mutex mu_;
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

  /// Binds, listens, and starts the accept thread. Throws qcut::Error on
  /// socket failures (port in use, bad host).
  void start();

  /// The bound port (after start(); resolves port = 0 to the actual one).
  int port() const noexcept { return port_; }

  /// Stops accepting, closes every connection, and joins all threads.
  /// Idempotent; also run by the destructor.
  void stop();

  /// Graceful shutdown (the SIGTERM path): stop accepting new connections,
  /// answer new estimate requests on live connections with a retryable
  /// `overloaded` rejection, let in-flight work finish for up to `budget_ms`
  /// (0 → cfg.drain_ms), then cancel the stragglers — their clients receive
  /// clean `cancelled` responses, never a silently dropped socket — and
  /// stop(). Returns true when every request finished or was answered within
  /// the budget (plus a bounded cancellation-settle grace).
  bool drain(std::uint64_t budget_ms = 0);

  /// True between drain() entry and stop().
  bool draining() const noexcept { return draining_.load(std::memory_order_relaxed); }

  ServiceCaches& caches() noexcept { return caches_; }

  /// The /metrics-style plaintext dump served on kMetricsRequest: one
  /// "qcut_<counter> <value>" line per obs counter plus service gauges
  /// (inflight, cache sizes). Exposed for tests.
  std::string metrics_text() const;

  /// Executes one already-decoded request in-process (no sockets): the
  /// shared implementation of the wire path, exposed so tests and the bench
  /// can drive the exact server semantics deterministically.
  WireEstimateResponse handle_estimate(const WireEstimateRequest& req);

 private:
  void accept_loop();
  void serve_connection(int fd);
  /// The wire path's estimate handler: like handle_estimate, but when
  /// `watch_fd` >= 0 the wait additionally watches that socket for a peer
  /// hangup — a vanished client leaves the coalescing key (cancelling the
  /// execution only when it was the last waiter) and sets *client_gone so
  /// the connection is closed without a send.
  WireEstimateResponse handle_estimate_watched(const WireEstimateRequest& req, int watch_fd,
                                               bool* client_gone);
  WireEstimateResponse execute(const WireEstimateRequest& req, std::uint64_t serial);
  /// The deadline actually enforced for a request: the client's ask clamped
  /// by cfg.max_deadline_ms (which also applies when the client asked for
  /// nothing). 0 → unbounded.
  std::uint64_t effective_deadline_ms(std::uint64_t requested_ms) const noexcept;
  /// Decrements `inflight_` or `busy_conns_` and wakes drain().
  void release(std::atomic<std::size_t>& counter);

  ServerConfig cfg_;
  ThreadPool pool_;
  ServiceCaches caches_;
  CoalescingMap<WireEstimateResponse> coalescer_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> inflight_{0};
  /// Connections currently processing a frame (recv'd, response not yet
  /// sent): drain() waits for this to hit zero so no client loses an
  /// already-earned response to the final socket teardown.
  std::atomic<std::size_t> busy_conns_{0};
  /// Signalled (under idle_mu_) whenever inflight_ or busy_conns_ drops.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<std::uint64_t> request_serial_{0};
  /// EWMA of request service time in microseconds (α = 1/8), seeded by the
  /// first completed request; the retry-after hint when admission rejects.
  std::atomic<std::uint64_t> ewma_service_us_{0};

  /// Tokens of requests currently executing, for drain()'s cancel sweep.
  std::mutex tokens_mu_;
  std::map<std::uint64_t, std::shared_ptr<CancelToken>> active_tokens_;

  std::thread accept_thread_;
  /// Live connections by fd. A connection leaves the map under conn_mu_
  /// before it closes its fd, so stop() only ever shuts down sockets that
  /// are still this server's; its thread moves to `finished_conns_`, which
  /// the accept loop and stop() join.
  std::mutex conn_mu_;
  std::map<int, std::thread> conns_;
  std::vector<std::thread> finished_conns_;
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
  Frame roundtrip(const Frame& frame);

  int fd_ = -1;
};

}  // namespace svc
}  // namespace qcut
