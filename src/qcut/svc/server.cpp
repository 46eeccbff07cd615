#include "qcut/svc/server.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
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

/// recv() until exactly `n` bytes arrive; throws on EOF or socket errors.
void recv_all(int fd, std::uint8_t* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    QCUT_CHECK(r != 0, "wire: server closed the connection");
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw Error(std::string("wire: recv failed: ") + std::strerror(errno));
    }
    got += static_cast<std::size_t>(r);
  }
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

WireEstimateResponse error_response(const std::exception& e) {
  WireEstimateResponse resp;
  resp.status = static_cast<std::uint8_t>(WireStatus::kError);
  resp.error = e.what();
  const Error* err = dynamic_cast<const Error*>(&e);
  resp.code = static_cast<std::uint8_t>(err != nullptr ? err->code() : ErrorCode::kInternal);
  return resp;
}

/// epoll tags of the listen socket and the eventfd; connection ids follow.
constexpr std::uint64_t kListenTag = 0;
constexpr std::uint64_t kWakeTag = 1;

bool watch(int epoll_fd, int op, int fd, std::uint32_t events, std::uint64_t tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  return ::epoll_ctl(epoll_fd, op, fd, &ev) == 0;
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
  QCUT_CHECK(listen_fd_ < 0 && phase_.load() == Phase::kServing,
             "QcutServer: already started");

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const int rc =
      ::getaddrinfo(cfg_.host.c_str(), std::to_string(cfg_.port).c_str(), &hints, &res);
  QCUT_CHECK(rc == 0, "QcutServer: cannot resolve '" + cfg_.host + "': " + gai_strerror(rc));
  const std::unique_ptr<addrinfo, void (*)(addrinfo*)> owned(res, ::freeaddrinfo);

  const int one = 1;
  listen_fd_ = ::socket(res->ai_family, res->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        res->ai_protocol);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (listen_fd_ < 0 || epoll_fd_ < 0 || wake_fd_ < 0 ||
      ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) != 0 ||
      ::bind(listen_fd_, res->ai_addr, res->ai_addrlen) != 0 || ::listen(listen_fd_, 64) != 0 ||
      !watch(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, EPOLLIN, kListenTag) ||
      !watch(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, EPOLLIN, kWakeTag)) {
    const std::string err = std::strerror(errno);
    stop();  // closes what was opened
    throw Error("QcutServer: cannot listen on " + cfg_.host + ":" + std::to_string(cfg_.port) +
                ": " + err);
  }

  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = static_cast<int>(ntohs(bound.sin_port));
  io_thread_ = std::thread([this] { io_loop(); });
}

void QcutServer::stop() {
  if (io_thread_.joinable()) {
    set_phase(Phase::kStopping);
    io_thread_.join();
  }
  for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
}

bool QcutServer::drain(std::uint64_t budget_ms) {
  if (!io_thread_.joinable()) {
    return true;  // never started or already stopped: trivially drained
  }
  // The loop closes the listen socket so no new connections arrive. Live
  // connections keep serving — their new estimate requests get the
  // retryable draining rejection, their in-flight ones run to completion.
  set_phase(Phase::kDraining);

  const auto wait_idle_until = [this](std::chrono::steady_clock::time_point end) {
    std::unique_lock<std::mutex> lock(idle_mu_);
    return idle_cv_.wait_until(lock, end, [this] { return idle_; });
  };

  bool clean = wait_idle_until(std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(budget_ms == 0 ? cfg_.drain_ms
                                                                        : budget_ms));
  if (!clean) {
    // Budget exhausted: cancel the stragglers. Their workers hit the next
    // poll quantum, unwind with kCancelled, and their clients receive clean
    // `cancelled` responses over still-open sockets. Cancellation is
    // cooperative, so give the polls a bounded moment to land and the
    // responses a moment to flush.
    set_phase(Phase::kCancelling);
    clean = wait_idle_until(std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(1000));
  }
  stop();
  return clean;
}

void QcutServer::set_phase(Phase phase) {
  phase_.store(phase);
  ::eventfd_write(wake_fd_, 1);
}

void QcutServer::io_loop() {
  epoll_event events[64];
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, -1);  // -1: EINTR, no events
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        accept_connections();
      } else if (tag == kWakeTag) {
        finish_jobs();
      } else {
        on_connection(tag, events[i].events);
      }
    }
    const Phase phase = phase_.load();
    if (phase == Phase::kServing) {
      continue;
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);  // also leaves the epoll set
      listen_fd_ = -1;
    }
    if (phase >= Phase::kCancelling) {
      for (auto& entry : jobs_) {
        entry.second.cancel->cancel();
      }
    }
    if (phase == Phase::kStopping) {
      while (!conns_.empty()) {
        close_connection(conns_.begin());
      }
      // Leave only once every task has posted: after that none touches
      // the server, so stop() may return and the server may die.
      if (jobs_.empty()) {
        return;
      }
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(idle_mu_);
      idle_ = jobs_.empty() && std::none_of(conns_.begin(), conns_.end(), [](auto& e) {
                return !e.second.key.empty() || !e.second.out.empty();
              });
    }
    idle_cv_.notify_all();
  }
}

void QcutServer::accept_connections() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      return;  // backlog empty; on a resource limit, the next wake retries
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const std::uint64_t id = next_conn_id_++;
    if (!watch(epoll_fd_, EPOLL_CTL_ADD, fd, EPOLLIN | EPOLLRDHUP, id)) {
      ::close(fd);
      continue;
    }
    Conn& c = conns_[id];
    c.fd = fd;
    c.events = EPOLLIN | EPOLLRDHUP;
  }
}

void QcutServer::on_connection(std::uint64_t id, std::uint32_t events) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) {
    return;  // closed earlier in this batch of events
  }
  Conn& c = it->second;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    close_connection(it);
  } else if (!c.key.empty()) {
    // Input while a request is outstanding: it waits in the kernel, and
    // until the answer goes out only a hang-up is watched (settle()). With
    // EPOLLRDHUP the peer shut its sending side: it still waits for answers
    // when it pipelined bytes first; with none, it hung up, and its waiter
    // leaves.
    std::uint8_t b = 0;
    c.parked = true;
    c.peer_shut = (events & EPOLLRDHUP) != 0;
    settle(it, !c.peer_shut || !c.in.empty() ||
                   ::recv(c.fd, &b, 1, MSG_PEEK | MSG_DONTWAIT) > 0);
  } else {
    const bool readable = (events & (EPOLLIN | EPOLLRDHUP)) != 0;
    std::uint8_t chunk[1 << 16];
    const ssize_t r = readable ? ::recv(c.fd, chunk, sizeof chunk, 0) : 0;
    if (r > 0) {
      c.in.insert(c.in.end(), chunk, chunk + r);
    }
    // EOF, mid-frame or not, or a transport error ends the connection.
    const bool open = r > 0 || !readable || (r < 0 && errno == EAGAIN);
    settle(it, open && advance(id, c));
  }
}

bool QcutServer::advance(std::uint64_t id, Conn& c) {
  try {
    for (;;) {
      while (!c.out.empty()) {
        const ssize_t r = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
        if (r < 0) {
          return errno == EAGAIN;  // EPOLLOUT resumes; anything else is fatal
        }
        c.out.erase(c.out.begin(), c.out.begin() + r);
      }
      if (!c.key.empty() || c.in.size() < kFrameHeaderSize) {
        return true;
      }
      const FrameHeader h = decode_frame_header(c.in.data(), kFrameHeaderSize);
      const std::size_t size = kFrameHeaderSize + h.payload_len;
      if (c.in.size() < size) {
        return true;
      }
      const auto end = c.in.begin() + static_cast<std::ptrdiff_t>(size);
      const std::vector<std::uint8_t> payload(c.in.begin() + kFrameHeaderSize, end);
      c.in.erase(c.in.begin(), end);
      if (h.type == MsgType::kEstimateRequest) {
        try {
          start_estimate(id, c, payload);
        } catch (const std::exception& e) {
          // Malformed payloads get a typed error frame; the connection
          // survives (framing is still intact).
          c.out = encode_text_frame(MsgType::kError, e.what());
        }
      } else if (h.type == MsgType::kMetricsRequest) {
        c.out = encode_text_frame(MsgType::kMetricsResponse, metrics_text());
      } else {
        c.out = encode_text_frame(MsgType::kError, "server: unexpected message type " +
                                                       std::to_string(static_cast<int>(h.type)));
      }
    }
  } catch (const std::exception&) {
    // Frame desync: drop the connection. The protocol has no resync point
    // inside a stream, so closing is the safe answer.
    return false;
  }
}

void QcutServer::start_estimate(std::uint64_t id, Conn& c,
                                const std::vector<std::uint8_t>& payload) {
  WireEstimateRequest req = decode_estimate_request(payload);
  obs::count(obs::Counter::kSvcRequests);

  // A draining server starts nothing new; the rejection is retryable so the
  // client can fail over (or wait out the restart). Past the admission cap
  // the pool (not the socket count) bounds concurrency: the client is told
  // to back off for about one service time.
  if (draining() || inflight_.load() >= cfg_.max_inflight) {
    obs::count(obs::Counter::kSvcRejected);
    WireEstimateResponse resp;
    resp.status = static_cast<std::uint8_t>(WireStatus::kRetryAfter);
    resp.code = static_cast<std::uint8_t>(ErrorCode::kOverloaded);
    if (draining()) {
      resp.retry_after_ms = cfg_.drain_ms == 0 ? 1000 : cfg_.drain_ms;
      resp.error = "server draining — not accepting new requests";
    } else {
      const std::uint64_t ewma_us = ewma_service_us_.load(std::memory_order_relaxed);
      resp.retry_after_ms = ewma_us == 0 ? 50 : (ewma_us + 999) / 1000;
      resp.error = "server at capacity (" + std::to_string(cfg_.max_inflight) +
                   " requests in flight) — retry after " +
                   std::to_string(resp.retry_after_ms) + " ms";
    }
    c.out = encode_frame(resp);
    return;
  }

  // Coalescing key = the exact wire payload: only bit-identical requests
  // (including seed, budget and deadline) merge, so merged answers are the
  // answers each request would have gotten alone.
  c.key.assign(payload.begin(), payload.end());
  auto cancel = std::make_shared<CancelToken>();
  if (!coalescer_.join(c.key, id, cancel)) {
    obs::count(obs::Counter::kSvcCoalesced);
    return;  // follower: answered when the leader's job finishes
  }

  // Leader. The deadline is armed at admission, so pool-queue wait counts
  // against it — a saturated server times out instead of silently stretching.
  // cfg.max_deadline_ms clamps the client's ask, and also applies when the
  // client asked for nothing; 0 → unbounded.
  std::uint64_t deadline = req.deadline_ms;
  if (cfg_.max_deadline_ms > 0) {
    deadline = deadline == 0 ? cfg_.max_deadline_ms : std::min(deadline, cfg_.max_deadline_ms);
  }
  cancel->set_deadline_after_ms(deadline);
  const std::uint64_t serial = request_serial_.fetch_add(1, std::memory_order_relaxed) + 1;
  // The pool carries this thread's context into the task: every
  // cancel_poll() below estimate() — planner DFS, batch loop, fragment
  // units — sees the request's token, and all of the request's parallel
  // work names pool_, where it runs inline on the request's worker.
  RequestContext ctx = current_request_context();
  ctx.cancel = cancel.get();
  ctx.pool = &pool_;
  const ScopedRequestContext scope(ctx);
  // The task owns its answer, encoded for the leader, and the pool
  // destroys the task on the worker once it has run, so the deleter posts
  // the answer to the loop exactly once — empty when an injected pool.task
  // fault kept the body from running. The eventfd write stays under the
  // lock: once the loop can see the answer, the worker touches the server
  // no more, so stop() may return.
  const std::shared_ptr<std::optional<std::vector<std::uint8_t>>> answer(
      new std::optional<std::vector<std::uint8_t>>(), [this, serial](auto* a) {
        const std::lock_guard<std::mutex> lock(finished_mu_);
        finished_.emplace_back(serial, std::move(*a));
        ::eventfd_write(wake_fd_, 1);
        delete a;
      });
  std::future<void> done = pool_.submit([this, req = std::move(req), serial, cancel, answer] {
    const auto t0 = std::chrono::steady_clock::now();
    try {
      *answer = encode_frame(execute(req, serial));
    } catch (const std::exception& e) {
      *answer = encode_frame(error_response(e));
    }
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    const std::uint64_t prev = ewma_service_us_.load(std::memory_order_relaxed);
    const std::uint64_t sample = static_cast<std::uint64_t>(us);
    ewma_service_us_.store(prev == 0 ? sample : prev - prev / 8 + sample / 8,
                           std::memory_order_relaxed);
  });
  jobs_.emplace(serial, Job{c.key, id, std::move(cancel), std::move(done)});
  inflight_.fetch_add(1);
}

void QcutServer::finish_jobs() {
  eventfd_t ignored = 0;
  ::eventfd_read(wake_fd_, &ignored);
  std::vector<std::pair<std::uint64_t, std::optional<std::vector<std::uint8_t>>>> finished;
  {
    std::lock_guard<std::mutex> lock(finished_mu_);
    finished.swap(finished_);
  }
  for (auto& [serial, answer] : finished) {
    const auto job = jobs_.find(serial);
    if (!answer) {
      // The body always answers, so the pool's wrapper failed before it ran.
      // The wrapper makes the future ready just after releasing the task,
      // so get() waits microseconds and throws why.
      try {
        job->second.done.get();
      } catch (const std::exception& e) {
        answer = encode_frame(error_response(e));
      }
    }
    // Retire the key before any answer goes out: a client's next request
    // can never join a run that already answered it. Followers get the
    // answer flagged `coalesced`, re-encoded once.
    std::vector<std::uint8_t> coalesced;
    for (const std::uint64_t waiter : coalescer_.complete(job->second.key)) {
      if (waiter != job->second.leader && coalesced.empty()) {
        WireEstimateResponse resp = decode_estimate_response(decode_frame(*answer).payload);
        resp.coalesced = 1;
        coalesced = encode_frame(resp);
      }
      const auto it = conns_.find(waiter);
      it->second.key.clear();
      it->second.out = waiter == job->second.leader ? *answer : coalesced;
      settle(it, advance(waiter, it->second));
    }
    jobs_.erase(job);
    inflight_.fetch_sub(1);
  }
}

void QcutServer::settle(ConnIt it, bool keep) {
  Conn& c = it->second;
  // One request at a time. The interest set stays as it is while a request
  // is outstanding (no epoll_ctl on the common path) until input arrives:
  // then only a hang-up is watched until the answer goes out, so pipelined
  // bytes wait in the kernel and nothing spins. Owed bytes are written
  // before more is read, so a client that never reads cannot grow `out`.
  c.parked = c.parked && !c.key.empty();
  std::uint32_t events = EPOLLIN | EPOLLRDHUP;
  if (c.parked) {
    events = c.peer_shut ? 0u : static_cast<std::uint32_t>(EPOLLRDHUP);
  } else if (!c.out.empty()) {
    events = EPOLLOUT;
  }
  if (keep && events != c.events) {
    keep = watch(epoll_fd_, EPOLL_CTL_MOD, c.fd, events, it->first);
    c.events = events;
  }
  if (!keep) {
    close_connection(it);
  }
}

void QcutServer::close_connection(ConnIt it) {
  if (!it->second.key.empty()) {
    coalescer_.leave(it->second.key, it->first);  // cancels the run iff it was the last waiter
  }
  ::close(it->second.fd);  // also leaves the epoll set
  conns_.erase(it);
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
  os << "qcut_svc_draining " << (draining() ? 1 : 0) << "\n";
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

Frame QcutClient::roundtrip(const std::vector<std::uint8_t>& bytes) {
  send_all(fd_, bytes.data(), bytes.size());
  std::uint8_t header[kFrameHeaderSize];
  recv_all(fd_, header, sizeof header);
  const FrameHeader h = decode_frame_header(header, sizeof header);
  Frame resp{h.type, std::vector<std::uint8_t>(h.payload_len)};
  recv_all(fd_, resp.payload.data(), resp.payload.size());
  return resp;
}

WireEstimateResponse QcutClient::estimate(const WireEstimateRequest& req) {
  const Frame resp = roundtrip(encode_frame(req));
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
  const Frame resp = roundtrip(encode_frame(Frame{MsgType::kMetricsRequest, {}}));
  QCUT_CHECK(resp.type == MsgType::kMetricsResponse,
             "wire: expected a metrics response, got type " +
                 std::to_string(static_cast<int>(resp.type)));
  return decode_metrics_response(resp.payload);
}

}  // namespace svc
}  // namespace qcut
