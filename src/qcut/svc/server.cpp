#include "qcut/svc/server.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "qcut/common/error.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/obs/trace.hpp"
#include "qcut/svc/api.hpp"

namespace qcut {
namespace svc {

namespace {

/// recv() until exactly `n` bytes arrive. Returns false on orderly shutdown
/// at a frame boundary (n bytes requested, 0 received so far); throws on
/// mid-frame EOF or socket errors.
bool recv_all(int fd, std::uint8_t* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r == 0) {
      QCUT_CHECK(got == 0, "wire: connection closed mid-frame (" + std::to_string(got) + " of " +
                               std::to_string(n) + " bytes)");
      return false;
    }
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw Error(std::string("wire: recv failed: ") + std::strerror(errno));
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

void send_all(int fd, const std::uint8_t* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw Error(std::string("wire: send failed: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(r);
  }
}

void send_frame(int fd, const Frame& frame) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  send_all(fd, bytes.data(), bytes.size());
}

/// Reads one frame; false on orderly close at a frame boundary.
bool recv_frame(int fd, Frame* out) {
  std::uint8_t header[kFrameHeaderSize];
  if (!recv_all(fd, header, sizeof header)) {
    return false;
  }
  const FrameHeader h = decode_frame_header(header, sizeof header);
  out->type = h.type;
  out->payload.resize(h.payload_len);
  if (h.payload_len > 0) {
    QCUT_CHECK(recv_all(fd, out->payload.data(), out->payload.size()),
               "wire: connection closed mid-payload");
  }
  return true;
}

/// True when the peer has hung up (or the socket is dead). Non-blocking
/// MSG_PEEK: pending pipelined bytes mean the client is alive and waiting.
bool peer_closed(int fd) {
  if (fd < 0) {
    return false;
  }
  std::uint8_t b = 0;
  const ssize_t r = ::recv(fd, &b, 1, MSG_PEEK | MSG_DONTWAIT);
  if (r == 0) {
    return true;  // orderly shutdown from the peer
  }
  if (r < 0) {
    return !(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR);
  }
  return false;
}

int connect_tcp(const std::string& host, int port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res);
  QCUT_CHECK(rc == 0, "wire: cannot resolve '" + host + "': " + gai_strerror(rc));
  int fd = -1;
  std::string last_err = "no addresses";
  for (addrinfo* a = res; a != nullptr; a = a->ai_next) {
    fd = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
    if (fd < 0) {
      last_err = std::strerror(errno);
      continue;
    }
    if (::connect(fd, a->ai_addr, a->ai_addrlen) == 0) {
      break;
    }
    last_err = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  QCUT_CHECK(fd >= 0, "wire: cannot connect to " + host + ":" + std::to_string(port) + ": " +
                          last_err);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace

QcutServer::QcutServer(ServerConfig cfg)
    : cfg_(cfg), pool_(cfg.workers), caches_(cfg.caches) {
  if (cfg_.max_inflight == 0) {
    cfg_.max_inflight = 4 * pool_.size();
  }
}

QcutServer::~QcutServer() { stop(); }

void QcutServer::start() {
  QCUT_CHECK(listen_fd_ < 0, "QcutServer: already started");

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const int rc =
      ::getaddrinfo(cfg_.host.c_str(), std::to_string(cfg_.port).c_str(), &hints, &res);
  QCUT_CHECK(rc == 0, "QcutServer: cannot resolve '" + cfg_.host + "': " + gai_strerror(rc));

  listen_fd_ = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (listen_fd_ < 0) {
    ::freeaddrinfo(res);
    throw Error(std::string("QcutServer: socket failed: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(listen_fd_, res->ai_addr, res->ai_addrlen) != 0 || ::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::freeaddrinfo(res);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("QcutServer: cannot listen on " + cfg_.host + ":" + std::to_string(cfg_.port) +
                ": " + err);
  }
  ::freeaddrinfo(res);

  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = static_cast<int>(ntohs(bound.sin_port));

  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void QcutServer::stop() {
  if (!running_.exchange(false)) {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  // Wake accept() with shutdown and join the accept thread before closing:
  // the loop reads listen_fd_, and a closed fd number could be reused by
  // another socket while accept() still runs on it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& [fd, thread] : conns_) {
      ::shutdown(fd, SHUT_RDWR);
      threads.push_back(std::move(thread));
    }
    conns_.clear();
    for (std::thread& t : finished_conns_) {
      threads.push_back(std::move(t));
    }
    finished_conns_.clear();
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

bool QcutServer::drain(std::uint64_t budget_ms) {
  if (budget_ms == 0) {
    budget_ms = cfg_.drain_ms;
  }
  if (!running_.load()) {
    return true;  // never started or already stopped: trivially drained
  }
  draining_.store(true, std::memory_order_relaxed);

  // Stop the intake: close the listen socket so no new connections arrive.
  // Live connections keep serving — their new estimate requests get the
  // retryable draining rejection, their in-flight ones run to completion.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }

  const auto wait_idle_until = [this](std::chrono::steady_clock::time_point end) {
    std::unique_lock<std::mutex> lock(idle_mu_);
    return idle_cv_.wait_until(lock, end, [this] {
      return inflight_.load(std::memory_order_relaxed) == 0 &&
             busy_conns_.load(std::memory_order_relaxed) == 0;
    });
  };

  bool clean = wait_idle_until(std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(budget_ms));
  if (!clean) {
    // Budget exhausted: cancel the stragglers. Their workers hit the next
    // poll quantum, unwind with kCancelled, and their clients receive clean
    // `cancelled` responses over still-open sockets.
    {
      std::lock_guard<std::mutex> lock(tokens_mu_);
      for (auto& entry : active_tokens_) {
        entry.second->cancel();
      }
    }
    // Bounded settle: cancellation is cooperative, so give the polls a
    // moment to land and the responses a moment to flush.
    clean = wait_idle_until(std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(1000));
  }
  stop();
  return clean;
}

void QcutServer::release(std::atomic<std::size_t>& counter) {
  std::lock_guard<std::mutex> lock(idle_mu_);  // no drop between drain's check and wait
  counter.fetch_sub(1, std::memory_order_relaxed);
  idle_cv_.notify_all();
}

void QcutServer::accept_loop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // listen socket shut down by stop() or drain()
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (!running_.load()) {
        ::close(fd);
        break;
      }
      finished.swap(finished_conns_);
      conns_.emplace(fd, std::thread([this, fd] { serve_connection(fd); }));
    }
    // Reap connections that have ended: each has left conns_ and is at
    // most a close() away from returning.
    for (std::thread& t : finished) {
      t.join();
    }
  }
}

void QcutServer::serve_connection(int fd) {
  // Counts connections mid-frame (request received, response not yet sent):
  // drain() refuses to tear sockets down while any response is still owed.
  struct BusyGuard {
    QcutServer& server;
    ~BusyGuard() { server.release(server.busy_conns_); }
  };
  try {
    Frame frame;
    while (running_.load() && recv_frame(fd, &frame)) {
      busy_conns_.fetch_add(1, std::memory_order_relaxed);
      const BusyGuard busy{*this};
      switch (frame.type) {
        case MsgType::kEstimateRequest: {
          WireEstimateResponse resp;
          bool client_gone = false;
          try {
            resp = handle_estimate_watched(decode_estimate_request(frame.payload), fd,
                                           &client_gone);
          } catch (const std::exception& e) {
            // Malformed payloads get a typed error frame; the connection
            // survives (framing is still intact).
            send_frame(fd, Frame{MsgType::kError, encode_error(e.what())});
            continue;
          }
          if (client_gone) {
            continue;  // peer hung up mid-request; the recv loop sees the close
          }
          send_frame(fd, Frame{MsgType::kEstimateResponse, encode_estimate_response(resp)});
          break;
        }
        case MsgType::kMetricsRequest:
          send_frame(fd, Frame{MsgType::kMetricsResponse, encode_metrics_response(metrics_text())});
          break;
        default:
          send_frame(fd, Frame{MsgType::kError,
                               encode_error("server: unexpected message type " +
                                            std::to_string(static_cast<int>(frame.type)))});
          break;
      }
    }
  } catch (const std::exception&) {
    // Frame-desync or transport failure: drop the connection. The protocol
    // has no resync point inside a stream, so closing is the safe answer.
  }
  {
    // Deregister before closing: once the number is free, accept() or any
    // other socket may reuse it, and stop() must not shut that one down.
    std::lock_guard<std::mutex> lock(conn_mu_);
    const auto it = conns_.find(fd);
    if (it != conns_.end()) {  // absent when stop() has already taken it
      finished_conns_.push_back(std::move(it->second));
      conns_.erase(it);
    }
  }
  ::close(fd);
}

std::uint64_t QcutServer::effective_deadline_ms(std::uint64_t requested_ms) const noexcept {
  if (cfg_.max_deadline_ms == 0) {
    return requested_ms;  // no ceiling configured: the client's ask stands
  }
  return requested_ms == 0 ? cfg_.max_deadline_ms
                           : std::min(requested_ms, cfg_.max_deadline_ms);
}

WireEstimateResponse QcutServer::handle_estimate(const WireEstimateRequest& req) {
  return handle_estimate_watched(req, /*watch_fd=*/-1, /*client_gone=*/nullptr);
}

WireEstimateResponse QcutServer::handle_estimate_watched(const WireEstimateRequest& req,
                                                         int watch_fd, bool* client_gone) {
  obs::count(obs::Counter::kSvcRequests);

  // A draining server starts nothing new; the rejection is retryable so the
  // client can fail over (or wait out the restart).
  if (draining_.load(std::memory_order_relaxed)) {
    obs::count(obs::Counter::kSvcRejected);
    WireEstimateResponse resp;
    resp.status = static_cast<std::uint8_t>(WireStatus::kRetryAfter);
    resp.retry_after_ms = cfg_.drain_ms == 0 ? 1000 : cfg_.drain_ms;
    resp.code = static_cast<std::uint8_t>(ErrorCode::kOverloaded);
    resp.error = "server draining — not accepting new requests";
    return resp;
  }

  // Admission control: the pool (not the socket count) bounds concurrency;
  // past the cap the client is told to back off for about one service time.
  if (inflight_.load(std::memory_order_relaxed) >= cfg_.max_inflight) {
    obs::count(obs::Counter::kSvcRejected);
    WireEstimateResponse resp;
    resp.status = static_cast<std::uint8_t>(WireStatus::kRetryAfter);
    const std::uint64_t ewma_us = ewma_service_us_.load(std::memory_order_relaxed);
    resp.retry_after_ms = ewma_us == 0 ? 50 : (ewma_us + 999) / 1000;
    resp.code = static_cast<std::uint8_t>(ErrorCode::kOverloaded);
    resp.error = "server at capacity (" + std::to_string(cfg_.max_inflight) +
                 " requests in flight) — retry after " + std::to_string(resp.retry_after_ms) +
                 " ms";
    return resp;
  }

  // Coalescing key = the exact wire payload: only bit-identical requests
  // (including seed, budget and deadline) merge, so merged answers are the
  // answers each request would have gotten alone.
  const std::vector<std::uint8_t> payload = encode_estimate_request(req);
  const std::string key(payload.begin(), payload.end());
  auto cancel = std::make_shared<CancelToken>();
  auto join = coalescer_.join(key, cancel);
  if (!join.leader) {
    obs::count(obs::Counter::kSvcCoalesced);
    // Follower: wait on the leader's future, watching our socket when asked.
    // A vanished client leaves the key — which cancels the leader's run only
    // when nobody else is waiting — and sends nothing.
    if (watch_fd >= 0) {
      while (join.future.wait_for(std::chrono::milliseconds(10)) !=
             std::future_status::ready) {
        if (peer_closed(watch_fd)) {
          coalescer_.leave(key);
          if (client_gone != nullptr) {
            *client_gone = true;
          }
          return {};
        }
      }
    }
    WireEstimateResponse resp = join.future.get();
    resp.coalesced = 1;
    return resp;
  }

  // Leader. The deadline is armed at admission, so pool-queue wait counts
  // against it — a saturated server times out instead of silently stretching.
  const std::uint64_t deadline = effective_deadline_ms(req.deadline_ms);
  if (deadline > 0) {
    cancel->set_deadline_after_ms(deadline);
  }
  const std::uint64_t serial = request_serial_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    active_tokens_[serial] = cancel;
  }
  inflight_.fetch_add(1, std::memory_order_relaxed);

  // shared_ptr wrapper: ThreadPool::submit takes std::function, which
  // requires a copyable callable; std::promise is move-only. `fulfilled`
  // lets the leader detect a promise orphaned by a failure in the pool's own
  // wrapper (e.g. an injected pool.task fault) and rescue it below.
  auto promise = std::make_shared<std::promise<WireEstimateResponse>>(std::move(join.promise));
  auto fulfilled = std::make_shared<std::atomic<bool>>(false);
  // The pool carries this thread's context into the task: every
  // cancel_poll() below estimate() — planner DFS, batch loop, fragment
  // units — sees the request's token, and all of the request's parallel
  // work names pool_, where it runs inline on the request's worker.
  RequestContext ctx = current_request_context();
  ctx.cancel = cancel.get();
  ctx.pool = &pool_;
  const ScopedRequestContext scope(ctx);
  std::future<void> task_done =
      pool_.submit([this, req, key, serial, cancel, promise, fulfilled]() {
        const auto t0 = std::chrono::steady_clock::now();
        WireEstimateResponse resp;
        try {
          resp = execute(req, serial);
        } catch (const Error& e) {
          resp.status = static_cast<std::uint8_t>(WireStatus::kError);
          resp.error = e.what();
          resp.code = static_cast<std::uint8_t>(e.code());
        } catch (const std::exception& e) {
          resp.status = static_cast<std::uint8_t>(WireStatus::kError);
          resp.error = e.what();
          resp.code = static_cast<std::uint8_t>(ErrorCode::kInternal);
        }
        const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        const std::uint64_t prev = ewma_service_us_.load(std::memory_order_relaxed);
        const std::uint64_t sample = static_cast<std::uint64_t>(us);
        ewma_service_us_.store(prev == 0 ? sample : prev - prev / 8 + sample / 8,
                               std::memory_order_relaxed);
        release(inflight_);
        {
          std::lock_guard<std::mutex> lock(tokens_mu_);
          active_tokens_.erase(serial);
        }
        // Retire the coalescing key BEFORE publishing the value: the client
        // sees the response only after set_value, so its next request can
        // never join a leader that already answered (it would inherit stale
        // cache flags).
        coalescer_.complete(key);
        promise->set_value(std::move(resp));
        fulfilled->store(true, std::memory_order_release);
      });

  // Wait on our own submission (not just join.future): if the pool wrapper
  // throws before the lambda runs, the promise is never fulfilled and every
  // waiter would hang — the get() below surfaces that and we rescue.
  bool gone = false;
  if (watch_fd >= 0) {
    while (task_done.wait_for(std::chrono::milliseconds(10)) != std::future_status::ready) {
      if (!gone && peer_closed(watch_fd)) {
        gone = true;
        if (client_gone != nullptr) {
          *client_gone = true;
        }
        // We stop caring about the answer, but stay to shepherd the task:
        // leave() cancels the run iff we were its last waiter.
        coalescer_.leave(key);
      }
    }
  } else {
    task_done.wait();
  }
  try {
    task_done.get();
  } catch (const std::exception& e) {
    if (!fulfilled->load(std::memory_order_acquire)) {
      // The pool wrapper failed before our lambda ran: redo the bookkeeping
      // it never reached so waiters get a typed answer instead of a hang.
      WireEstimateResponse resp;
      resp.status = static_cast<std::uint8_t>(WireStatus::kError);
      resp.error = e.what();
      const Error* err = dynamic_cast<const Error*>(&e);
      resp.code = static_cast<std::uint8_t>(err != nullptr ? err->code() : ErrorCode::kInternal);
      release(inflight_);
      {
        std::lock_guard<std::mutex> lock(tokens_mu_);
        active_tokens_.erase(serial);
      }
      coalescer_.complete(key);
      promise->set_value(std::move(resp));
      fulfilled->store(true, std::memory_order_release);
    }
  }
  if (gone) {
    return {};
  }
  return join.future.get();
}

WireEstimateResponse QcutServer::execute(const WireEstimateRequest& wreq, std::uint64_t serial) {
  obs::TraceSpan span("svc.request", serial);

  if (cfg_.debug_request_delay_ms > 0) {
    // Sleep in 1 ms quanta with cancellation polls so a deadline or a drain
    // cancellation lands mid-delay instead of after the full artificial wait.
    const auto delay_end = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(cfg_.debug_request_delay_ms);
    while (std::chrono::steady_clock::now() < delay_end) {
      cancel_poll();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  if (wreq.backend > 2) {
    throw Error("server: unknown backend kind " + std::to_string(wreq.backend),
                ErrorCode::kInvalidRequest);
  }

  EstimateRequest req;
  req.circuit_qasm = wreq.circuit_qasm;
  try {
    req.observable = Observable::parse(wreq.observable);
  } catch (const Error& e) {
    throw Error(e.what(), ErrorCode::kInvalidRequest);
  }
  req.epsilon = wreq.epsilon;
  req.shot_cap = wreq.shot_cap;
  req.request_id = wreq.request_id.empty() ? "req-" + std::to_string(serial) : wreq.request_id;
  req.planner.max_fragment_width = wreq.max_fragment_width;
  req.planner.resource_overlap = wreq.resource_overlap;
  req.planner.pair_budget = wreq.pair_budget;
  req.planner.allow_gate_cuts = wreq.allow_gate_cuts != 0;
  req.planner.target_accuracy = wreq.target_accuracy;
  req.planner.max_cuts = wreq.max_cuts;
  req.planner.exhaustive_limit = wreq.exhaustive_limit;
  req.planner.max_nodes = wreq.max_nodes;
  req.run_cfg.shots = wreq.shots;
  req.run_cfg.seed = wreq.seed;
  // Wire value 2 named the retired fragment kind, whose exact path is now
  // the batched-branch backend's: it decodes to kind 1, so old clients keep
  // their answers bit for bit.
  req.run_cfg.backend = static_cast<BackendKind>(std::min<std::uint8_t>(wreq.backend, 1));
  // The admission-armed token already governs this task; handing it to
  // estimate() too buys the front-door poll (fail before planning).
  req.cancel = current_cancel_token();

  const EstimateResult res = estimate(req, &caches_);

  WireEstimateResponse resp;
  resp.status = static_cast<std::uint8_t>(WireStatus::kOk);
  resp.code = static_cast<std::uint8_t>(ErrorCode::kOk);
  resp.estimate = res.estimate;
  resp.ci_halfwidth = res.ci_halfwidth;
  resp.has_exact = res.has_exact ? 1 : 0;
  resp.exact = res.exact;
  resp.shots_used = res.shots_used;
  resp.kappa = res.kappa;
  resp.plan_cuts = res.plan_summary.cuts;
  resp.plan_gate_cuts = res.plan_summary.gate_cuts;
  resp.plan_total_kappa = res.plan_summary.total_kappa;
  resp.plan_predicted_shots = res.plan_summary.predicted_shots;
  resp.plan_max_width = res.plan_summary.max_width;
  resp.plan_max_sim_width = res.plan_summary.max_sim_width;
  resp.plan_cache_hit = res.plan_cache_hit ? 1 : 0;
  resp.eval_cache_hit = res.eval_cache_hit ? 1 : 0;
  resp.report_json = res.run.report.to_json(2);
  return resp;
}

std::string QcutServer::metrics_text() const {
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  std::ostringstream os;
  for (int i = 0; i < obs::kCounterCount; ++i) {
    os << "qcut_" << obs::counter_name(static_cast<obs::Counter>(i)) << " "
       << snap.values[static_cast<std::size_t>(i)] << "\n";
  }
  os << "qcut_svc_inflight " << inflight_.load(std::memory_order_relaxed) << "\n";
  os << "qcut_svc_max_inflight " << cfg_.max_inflight << "\n";
  os << "qcut_svc_draining " << (draining_.load(std::memory_order_relaxed) ? 1 : 0) << "\n";
  os << "qcut_svc_pool_workers " << pool_.size() << "\n";
  os << "qcut_plan_cache_size " << caches_.plans.size() << "\n";
  os << "qcut_eval_cache_size " << caches_.evals.size() << "\n";
  return os.str();
}

QcutClient::QcutClient(const std::string& host, int port) : fd_(connect_tcp(host, port)) {}

QcutClient::~QcutClient() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Frame QcutClient::roundtrip(const Frame& frame) {
  send_frame(fd_, frame);
  Frame resp;
  QCUT_CHECK(recv_frame(fd_, &resp), "wire: server closed the connection");
  return resp;
}

WireEstimateResponse QcutClient::estimate(const WireEstimateRequest& req) {
  const Frame resp = roundtrip(Frame{MsgType::kEstimateRequest, encode_estimate_request(req)});
  if (resp.type == MsgType::kError) {
    WireEstimateResponse out;
    out.status = static_cast<std::uint8_t>(WireStatus::kError);
    out.error = decode_error(resp.payload);
    return out;
  }
  QCUT_CHECK(resp.type == MsgType::kEstimateResponse,
             "wire: expected an estimate response, got type " +
                 std::to_string(static_cast<int>(resp.type)));
  return decode_estimate_response(resp.payload);
}

std::string QcutClient::metrics() {
  const Frame resp = roundtrip(Frame{MsgType::kMetricsRequest, {}});
  QCUT_CHECK(resp.type == MsgType::kMetricsResponse,
             "wire: expected a metrics response, got type " +
                 std::to_string(static_cast<int>(resp.type)));
  return decode_metrics_response(resp.payload);
}

}  // namespace svc
}  // namespace qcut
