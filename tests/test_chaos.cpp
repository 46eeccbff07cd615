// Chaos harness: deterministic fault injection, cooperative cancellation,
// deadlines, and mid-request disconnects against a live server. The
// invariants under test: the server never crashes, never hangs, answers
// every accepted request with a typed response, and — once the fault is
// disarmed — produces answers bit-identical to an undisturbed run.
#include <gtest/gtest.h>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "qcut/common/cancel.hpp"
#include "qcut/common/error.hpp"
#include "qcut/common/fault.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/sim/qasm.hpp"
#include "qcut/svc/server.hpp"
#include "qcut/svc/wire.hpp"
#include "test_helpers.hpp"

namespace qcut {
namespace svc {
namespace {

using qcut::testing::ghz_line;

WireEstimateRequest chaos_request(std::uint64_t seed = 11, int width = 4) {
  WireEstimateRequest req;
  req.circuit_qasm = to_qasm(ghz_line(width));
  req.observable = std::string(static_cast<std::size_t>(width), 'Z');
  req.max_fragment_width = 3;
  req.shots = 4000;
  req.seed = seed;
  return req;
}

/// Disarms on scope exit so a failing assertion can't leak an armed fault
/// into the next test.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) { fault::arm_faults(spec); }
  ~FaultGuard() { fault::disarm_faults(); }
};

// ---- cancellation primitives -----------------------------------------------

TEST(CancelTokenTest, CancelAndDeadlineProduceTheirTypedStates) {
  CancelToken token;
  EXPECT_EQ(token.state(), ErrorCode::kOk);
  token.cancel();
  EXPECT_EQ(token.state(), ErrorCode::kCancelled);

  CancelToken dl;
  dl.set_deadline_after_ms(0);  // 0 clears: no deadline
  EXPECT_FALSE(dl.has_deadline());
  dl.set_deadline_after_ms(1);
  EXPECT_TRUE(dl.has_deadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(dl.deadline_passed());
  EXPECT_EQ(dl.state(), ErrorCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, PollThrowsTypedErrorsOnlyWhenAScopeIsInstalled) {
  cancel_poll();  // no token installed: free and silent
  EXPECT_EQ(current_cancel_token(), nullptr);

  CancelToken outer;
  ScopedRequestContext outer_scope({&outer, nullptr});
  EXPECT_EQ(current_cancel_token(), &outer);
  cancel_poll();  // installed but untripped: silent

  {
    CancelToken inner;
    inner.cancel();
    ScopedRequestContext inner_scope({&inner, nullptr});
    EXPECT_EQ(current_cancel_token(), &inner);
    try {
      cancel_poll();
      FAIL() << "cancelled token did not throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCancelled);
    }
  }
  // The nested scope restored the outer token on exit.
  EXPECT_EQ(current_cancel_token(), &outer);

  outer.set_deadline_after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  try {
    cancel_poll();
    FAIL() << "expired deadline did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
  }
}

// ---- fault registry determinism --------------------------------------------

/// The fire/skip pattern of the next `n` arrivals at a site, as a bitstring.
std::string fire_pattern(fault::Site site, int n) {
  std::string pattern;
  for (int i = 0; i < n; ++i) {
    try {
      fault::maybe_inject(site);
      pattern.push_back('.');
    } catch (const Error&) {
      pattern.push_back('X');
    }
  }
  return pattern;
}

TEST(FaultRegistryTest, CounterSeededDecisionsReproduceAcrossRearms) {
  std::string first;
  {
    FaultGuard guard("svc.plan:throw:0.5:42");
    first = fire_pattern(fault::Site::kSvcPlan, 64);
  }
  EXPECT_NE(first.find('X'), std::string::npos);  // p=0.5 over 64 draws fires
  EXPECT_NE(first.find('.'), std::string::npos);  // ... and skips

  // Re-arming the same spec resets the arrival counter: identical pattern.
  {
    FaultGuard guard("svc.plan:throw:0.5:42");
    EXPECT_EQ(fire_pattern(fault::Site::kSvcPlan, 64), first);
  }
  // A different seed draws a different pattern.
  {
    FaultGuard guard("svc.plan:throw:0.5:43");
    EXPECT_NE(fire_pattern(fault::Site::kSvcPlan, 64), first);
  }
  // Unarmed sites never fire, armed-elsewhere sites never fire.
  {
    FaultGuard guard("svc.plan:throw:1");
    EXPECT_EQ(fire_pattern(fault::Site::kExecBatch, 8), "........");
  }
  // Fully disarmed: nothing fires anywhere.
  EXPECT_EQ(fire_pattern(fault::Site::kSvcPlan, 8), "........");
}

TEST(FaultRegistryTest, DelayKindInjectsLatencyInsteadOfThrowing) {
  FaultGuard guard("pool.task:delay_ms=30");
  const auto t0 = std::chrono::steady_clock::now();
  fault::maybe_inject(fault::Site::kPoolTask);  // p defaults to 1: always fires
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_GE(ms, 30);
}

TEST(FaultRegistryTest, MalformedSpecsThrowAndCountersCount) {
  EXPECT_THROW(fault::arm_faults("nonsense.site:throw"), Error);
  EXPECT_THROW(fault::arm_faults("svc.plan:explode"), Error);
  EXPECT_THROW(fault::arm_faults("svc.plan"), Error);
  fault::disarm_faults();

  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  {
    FaultGuard guard("svc.plan:throw:1:7");
    EXPECT_THROW(fault::maybe_inject(fault::Site::kSvcPlan), Error);
  }
  const obs::MetricsSnapshot delta = obs::metrics_delta(before, obs::metrics_snapshot());
  EXPECT_GE(delta[obs::Counter::kFaultsInjected], 1u);
}

// ---- faults against a live server ------------------------------------------

TEST(ChaosServerTest, EverySiteFailsTypedAndTheServerSurvivesBitIdentically) {
  ServerConfig cfg;
  cfg.workers = 2;
  QcutServer server(cfg);
  server.start();

  // Reference answer BEFORE any fault is armed.
  QcutClient ref_client("127.0.0.1", server.port());
  const WireEstimateResponse ref = ref_client.estimate(chaos_request());
  ASSERT_EQ(ref.status, static_cast<std::uint8_t>(WireStatus::kOk)) << ref.error;

  const std::vector<std::string> specs = {
      "wire.decode:throw", "svc.plan:throw",     "exec.batch:throw",
      "fragment.unit:throw", "cache.insert:throw", "pool.task:throw",
  };
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string& spec = specs[i];
    {
      FaultGuard guard(spec);
      QcutClient client("127.0.0.1", server.port());
      // Distinct width per spec: the faulted attempt must be a full cache
      // MISS, or warm-path requests would skip the planner, the fragment
      // builder, and the cache inserts — and those sites could never fire.
      WireEstimateRequest req = chaos_request(1000 + i, 4 + static_cast<int>(i));
      if (spec.rfind("fragment.unit", 0) == 0) {
        req.backend = 2;  // the (fragment, read-assignment) loop only runs there
      }
      const WireEstimateResponse resp = client.estimate(req);
      EXPECT_EQ(resp.status, static_cast<std::uint8_t>(WireStatus::kError)) << spec;
      EXPECT_NE(resp.error.find("fault injected"), std::string::npos)
          << spec << ": " << resp.error;
    }
    // Fault disarmed: the same connection pattern works again, and the
    // answer matches the pre-chaos reference bit for bit.
    QcutClient client("127.0.0.1", server.port());
    const WireEstimateResponse after = client.estimate(chaos_request());
    ASSERT_EQ(after.status, static_cast<std::uint8_t>(WireStatus::kOk))
        << spec << ": " << after.error;
    EXPECT_EQ(after.estimate, ref.estimate) << spec;
    EXPECT_EQ(after.shots_used, ref.shots_used) << spec;
  }
  server.stop();
}

TEST(ChaosServerTest, ProbabilisticFaultsUnderConcurrencyLeaveSurvivorsIntact) {
  ServerConfig cfg;
  cfg.workers = 4;
  QcutServer server(cfg);
  server.start();

  QcutClient ref_client("127.0.0.1", server.port());
  const WireEstimateResponse ref = ref_client.estimate(chaos_request());
  ASSERT_EQ(ref.status, static_cast<std::uint8_t>(WireStatus::kOk)) << ref.error;

  FaultGuard guard("svc.plan:throw:0.5:7,exec.batch:throw:0.2:8");
  constexpr int kClients = 8;
  std::vector<WireEstimateResponse> resps(kClients);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      QcutClient client("127.0.0.1", server.port());
      resps[static_cast<std::size_t>(t)] = client.estimate(chaos_request());
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  int survived = 0;
  for (const WireEstimateResponse& r : resps) {
    if (r.status == static_cast<std::uint8_t>(WireStatus::kOk)) {
      ++survived;
      // Survivors are bit-identical to the undisturbed answer: fault
      // decisions draw from per-site counters, never the simulation RNG.
      EXPECT_EQ(r.estimate, ref.estimate);
      EXPECT_EQ(r.shots_used, ref.shots_used);
    } else {
      EXPECT_EQ(r.status, static_cast<std::uint8_t>(WireStatus::kError));
      EXPECT_FALSE(r.error.empty());
    }
  }
  // Note: identical requests coalesce, so one faulted/surviving leader may
  // answer for several clients — only the shape, not the count, is pinned.
  server.stop();
}

// ---- mid-request disconnect ------------------------------------------------

int raw_connect(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

TEST(ChaosServerTest, MidRequestDisconnectCancelsTheLeaderAndServerStaysHealthy) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.debug_request_delay_ms = 2000;  // long enough to hang up mid-flight
  QcutServer server(cfg);
  server.start();

  const obs::MetricsSnapshot before = obs::metrics_snapshot();

  // Send a full estimate frame, then vanish without reading the response.
  const int fd = raw_connect(server.port());
  const std::vector<std::uint8_t> frame = encode_frame(
      Frame{MsgType::kEstimateRequest, encode_estimate_request(chaos_request(5000))});
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // let it start
  ::close(fd);

  // The server sees the hangup (EPOLLRDHUP), leave() cancels the sole waiter's
  // run, and the cancellation lands at the next poll inside the delay loop.
  const auto t_end = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::uint64_t cancellations = 0;
  while (cancellations == 0 && std::chrono::steady_clock::now() < t_end) {
    cancellations =
        obs::metrics_delta(before, obs::metrics_snapshot())[obs::Counter::kCancellations];
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(cancellations, 1u) << "disconnect did not cancel the abandoned run";

  // The server is still healthy: a fresh (uncoalesced) request works.
  QcutClient client("127.0.0.1", server.port());
  WireEstimateRequest req = chaos_request(6000);
  const auto t0 = std::chrono::steady_clock::now();
  const WireEstimateResponse resp = client.estimate(req);
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(WireStatus::kOk)) << resp.error;
  // And the 1-worker pool was actually freed by the cancellation: the fresh
  // request did not sit behind a 2 s zombie.
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_LT(ms, 4500);
  server.stop();
}

// ---- drain with chaos ------------------------------------------------------

TEST(ChaosServerTest, DrainUnderFaultsAndLoadStillAnswersEverything) {
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.debug_request_delay_ms = 1500;
  QcutServer server(cfg);
  server.start();

  FaultGuard guard("cache.insert:throw:0.5:9");
  constexpr int kClients = 4;
  std::vector<int> answered(kClients, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        QcutClient client("127.0.0.1", server.port());
        WireEstimateRequest req = chaos_request(8000 + static_cast<std::uint64_t>(t));
        (void)client.estimate(req);  // any decoded response counts
        answered[static_cast<std::size_t>(t)] = 1;
      } catch (const Error&) {
        answered[static_cast<std::size_t>(t)] = 0;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // let them land
  EXPECT_TRUE(server.drain(200));
  for (auto& t : threads) {
    t.join();
  }
  for (int t = 0; t < kClients; ++t) {
    EXPECT_EQ(answered[static_cast<std::size_t>(t)], 1) << "client " << t << " lost its socket";
  }
}

}  // namespace
}  // namespace svc
}  // namespace qcut
