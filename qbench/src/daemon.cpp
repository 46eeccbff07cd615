// The daemon workload: the real qcut-server binary as a child process,
// driven over loopback by one closed-loop connection per core.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "driver.hpp"
#include "probe.hpp"
#include "qcut/svc/server.hpp"
#include "stages.hpp"

namespace qbench {

namespace svc = qcut::svc;
namespace obs = qcut::obs;

namespace {

constexpr const char* kHost = "127.0.0.1";
/// Answered requests per class recomputed in process after the timed phase.
constexpr std::size_t kVerifyPerClass = 8;

/// A qcut-server child on an ephemeral port, found through --port-file.
/// The destructor stops it with SIGTERM (SIGKILL after 10 s) and reaps it.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& port_file) : port_file_(port_file) {
    std::remove(port_file_.c_str());
    pid_ = fork();
    if (pid_ < 0) {
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive the driver
      const int devnull = open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        dup2(devnull, STDOUT_FILENO);
      }
      execl(bin.c_str(), bin.c_str(), "--port", "0", "--port-file", port_file.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
    const std::uint64_t start = now_ns();
    while (port_ == 0) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("qcut-server exited during start-up (" + bin + ")");
      }
      std::ifstream in(port_file_);
      std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
      if (!text.empty() && text.back() == '\n') {
        port_ = std::stoi(text);
      } else if (ms_since(start) > 10000.0) {
        stop();
        throw std::runtime_error("qcut-server did not write its port file within 10 s");
      } else {
        usleep(1000);
      }
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const noexcept { return pid_; }
  int port() const noexcept { return port_; }

  void stop() {
    if (pid_ <= 0) {
      return;
    }
    kill(pid_, SIGTERM);
    const std::uint64_t start = now_ns();
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) != pid_) {
      if (ms_since(start) > 10000.0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      usleep(1000);
    }
    pid_ = -1;
    std::remove(port_file_.c_str());
  }

 private:
  std::string port_file_;
  pid_t pid_ = -1;
  int port_ = 0;
};

struct Sample {
  std::uint64_t index = 0;
  int cls = 0;
  double latency_ms = 0.0;
  double estimate = 0.0;
  std::uint64_t shots_used = 0;
};

/// Failures seen on one client thread, merged into the outcome after join.
struct ThreadLog {
  std::vector<Sample> samples;
  std::vector<std::string> failures;
};

bool is_hot(const WorkloadSpec& w, int cls) { return w.classes[static_cast<std::size_t>(cls)].hot; }

/// Sends `req` and checks status and answer; false (with a logged reason)
/// on failure.
bool send_checked(svc::QcutClient& client, const BenchRequest& req, svc::WireEstimateResponse* resp,
                  std::vector<std::string>* failures) {
  try {
    *resp = client.estimate(req.wire);
  } catch (const std::exception& e) {
    failures->push_back(req.wire.request_id + ": " + e.what());
    return false;
  }
  if (resp->status != static_cast<std::uint8_t>(svc::WireStatus::kOk)) {
    failures->push_back(req.wire.request_id + ": status " + std::to_string(resp->status) + " " +
                        resp->error);
    return false;
  }
  if (!answer_ok(req, resp->estimate, resp->ci_halfwidth, resp->has_exact != 0, resp->exact)) {
    failures->push_back("answer check: " + req.wire.request_id);
    return false;
  }
  return true;
}

/// A started daemon with one connected client per core.
struct Served {
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<svc::QcutClient>> clients;
  void stop() {
    clients.clear();  // close connections first so the drain is immediate
    if (daemon) {
      daemon->stop();
    }
  }
};

std::size_t connections() { return std::max(1u, std::thread::hardware_concurrency()); }

/// One set-up pass: start the daemon, connect, and warm it with every hot
/// circuit plus one cold request per connection.
void setup_pass(const RunArgs& args, int rep, Served* served, RunOutcome* out) {
  const RequestStream stream(*args.spec, args.seed);
  served->daemon = std::make_unique<Daemon>(
      args.server_bin, args.work_dir + "/qbench-port-" + std::to_string(getpid()));
  const std::size_t n = connections();
  for (std::size_t c = 0; c < n; ++c) {
    served->clients.push_back(std::make_unique<svc::QcutClient>(kHost, served->daemon->port()));
  }
  int cold = 0;
  while (is_hot(*args.spec, cold)) {
    ++cold;
  }
  std::vector<ThreadLog> logs(n);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      svc::WireEstimateResponse resp;
      for (int k = static_cast<int>(c); k < args.spec->hot_set; k += static_cast<int>(n)) {
        send_checked(*served->clients[c], stream.hot(k, 0x51ed + static_cast<std::uint64_t>(k)),
                     &resp, &logs[c].failures);
      }
      send_checked(*served->clients[c],
                   stream.warmup(cold, rep * static_cast<int>(n) + static_cast<int>(c)), &resp,
                   &logs[c].failures);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const ThreadLog& log : logs) {
    for (const std::string& f : log.failures) {
      out->fail(f);
    }
  }
}

double measure_setup(const RunArgs& args, Served* served, RunOutcome* out) {
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps && out->correct; ++rep) {
    const std::uint64_t start = rep == 0 ? args.start_ns : now_ns();
    if (rep > 0) {
      served->stop();
      *served = Served{};
    }
    setup_pass(args, rep, served, out);
    setups.push_back(ms_since(start) * 1e-3);
  }
  return median(setups);
}

/// Recomputes a seeded sample of hot and cold answers through in-process
/// svc::estimate; estimate and shots_used must match bit for bit.
void verify_sample(const RunArgs& args, const std::vector<Sample>& answered, RunOutcome* out) {
  const RequestStream stream(*args.spec, args.seed);
  std::mt19937_64 rng(args.seed);
  for (int hot = 0; hot < 2; ++hot) {
    std::vector<const Sample*> pool;
    for (const Sample& s : answered) {
      if (is_hot(*args.spec, s.cls) == (hot == 1)) {
        pool.push_back(&s);
      }
    }
    for (std::size_t k = 0; k < kVerifyPerClass && !pool.empty(); ++k) {
      const std::size_t pick = static_cast<std::size_t>(rng() % pool.size());
      const Sample& s = *pool[pick];
      pool.erase(pool.begin() + static_cast<long>(pick));
      const BenchRequest req = stream.at(s.index);
      const svc::EstimateResult res = svc::estimate(to_estimate_request(req.wire));
      if (!same_answer(res.estimate, res.shots_used, s.estimate, s.shots_used)) {
        out->fail("daemon answer differs from in-process svc::estimate: " + req.wire.request_id);
      }
    }
  }
}

/// One timed phase over the stream from request *cursor on.
Phase timed_phase(const RunArgs& args, double setup_s, Served* served, std::uint64_t* cursor,
                  RunOutcome* out) {
  const RequestStream stream(*args.spec, args.seed);
  const std::size_t n = served->clients.size();
  const pid_t pid = served->daemon->pid();
  std::atomic<std::uint64_t> next{*cursor};
  std::atomic<std::size_t> answered{0};
  std::vector<ThreadLog> logs(n);
  const HostSteal steal;
  const double cpu0 = cpu_seconds(pid);
  const std::uint64_t start = now_ns();
  const std::uint64_t stop = start + static_cast<std::uint64_t>(args.seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      svc::WireEstimateResponse resp;
      while ((now_ns() < stop || answered.load() < kMinRequests) && logs[c].failures.empty()) {
        const BenchRequest req = stream.at(next.fetch_add(1));
        const std::uint64_t t0 = now_ns();
        if (!send_checked(*served->clients[c], req, &resp, &logs[c].failures)) {
          break;
        }
        logs[c].samples.push_back({req.index, req.cls, ms_since(t0), resp.estimate, resp.shots_used});
        answered.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double wall_s = ms_since(start) * 1e-3;
  const double cpu_s = cpu_seconds(pid) - cpu0;
  const double stolen = steal.share();
  const double rss = peak_rss_mb(pid);
  *cursor = next.load();

  std::vector<Sample> all;
  std::vector<double> latency_ms;
  for (const ThreadLog& log : logs) {
    for (const std::string& f : log.failures) {
      ++out->attempted;
      out->fail(f);
    }
    all.insert(all.end(), log.samples.begin(), log.samples.end());
  }
  out->attempted += all.size();
  for (const Sample& s : all) {
    latency_ms.push_back(s.latency_ms);
  }
  if (!out->correct) {
    return {};
  }
  verify_sample(args, all, out);
  return {end_to_end_metrics(setup_s, all.size(), wall_s, latency_ms, cpu_s, rss), stolen};
}

/// Counter values from the daemon's /metrics dump ("qcut_<counter> <n>").
obs::MetricsSnapshot parse_metrics(const std::string& text) {
  obs::MetricsSnapshot snap;
  std::istringstream lines(text);
  std::string name;
  std::uint64_t value = 0;
  while (lines >> name >> value) {
    for (int i = 0; i < obs::kCounterCount; ++i) {
      if (name == std::string("qcut_") + obs::counter_name(static_cast<obs::Counter>(i))) {
        snap.values[static_cast<std::size_t>(i)] = value;
      }
    }
  }
  return snap;
}

/// One connection, one request at a time. Cold requests are replayed in the
/// bench process through the staged composition and plain svc::estimate;
/// hot requests get their import and exact-reference stages timed there.
void run_traced(const RunArgs& args, Served* served, RunOutcome* out) {
  const RequestStream stream(*args.spec, args.seed);
  svc::QcutClient& client = *served->clients.front();
  LayerSums layers;
  TraceSums t;
  std::vector<std::string> failures;
  const obs::MetricsSnapshot before = parse_metrics(client.metrics());
  const std::uint64_t start = now_ns();
  for (std::uint64_t i = 0;
       (ms_since(start) < args.seconds * 1e3 || t.cold_ms.size() < kMinRequests) && failures.empty();
       ++i) {
    const BenchRequest req = stream.at(i);
    ++out->attempted;
    svc::WireEstimateResponse resp;
    const std::uint64_t t0 = now_ns();
    if (!send_checked(client, req, &resp, &failures)) {
      break;
    }
    const double ms = ms_since(t0);
    layers.counted_wall_ms += ms;
    t.wire.add(req.wire, resp);
    const svc::EstimateRequest sreq = to_estimate_request(req.wire);
    if (is_hot(*args.spec, req.cls)) {
      t.hot_ms.push_back(ms);
      const StageTimes st = time_import_and_exact(sreq);
      ++layers.import_n;
      layers.import_ms += st.import_ms;
      ++layers.exact_n;
      layers.exact_ms += st.exact_ms;
      continue;
    }
    t.cold_ms.push_back(ms);
    StagedRun staged;
    svc::EstimateResult plain;
    double plain_wall = 0.0;
    auto run_plain = [&] {
      const std::uint64_t p0 = now_ns();
      plain = svc::estimate(sreq);
      plain_wall = ms_since(p0);
    };
    if (t.cold_ms.size() % 2 == 0) {
      staged = run_staged(sreq);
      run_plain();
    } else {
      run_plain();
      staged = run_staged(sreq);
    }
    if (!same_answer(staged.estimate, staged.shots_used, plain.estimate, plain.shots_used) ||
        !same_answer(resp.estimate, resp.shots_used, plain.estimate, plain.shots_used)) {
      failures.push_back("composed / daemon estimate differs from svc::estimate: " +
                         req.wire.request_id);
      break;
    }
    layers.add_staged(staged);
    t.staged_ms.push_back(staged.wall_ms);
    t.stage_sum_ms.push_back(staged.ms.sum());
    t.plain_ms.push_back(plain_wall);
  }
  for (const std::string& f : failures) {
    out->fail(f);
  }
  if (!out->correct) {
    return;
  }
  const obs::MetricsSnapshot delta =
      obs::metrics_delta(before, parse_metrics(client.metrics()));
  layers.add_counters(delta);
  layers.counted = static_cast<std::size_t>(out->attempted);

  const auto c = [&delta](obs::Counter k) { return static_cast<double>(delta[k]); };
  t.plan_hits = c(obs::Counter::kPlanCacheHit);
  t.plan_misses = c(obs::Counter::kPlanCacheMiss);
  t.eval_hits = c(obs::Counter::kEvalCacheHit);
  t.eval_misses = c(obs::Counter::kEvalCacheMiss);
  t.requests = c(obs::Counter::kSvcRequests);
  t.coalesced = c(obs::Counter::kSvcCoalesced);
  t.rejected = c(obs::Counter::kSvcRejected);
  out->metrics = layer_metrics(layers, connections());
  const std::vector<Metric> more = trace_metrics(t, out);
  out->metrics.insert(out->metrics.end(), more.begin(), more.end());
}

}  // namespace

RunOutcome run_daemon(const RunArgs& args) {
  RunOutcome out;
  Served served;  // its destructor closes the connections, then stops the daemon
  const double setup_s = measure_setup(args, &served, &out);
  if (out.correct) {
    if (args.trace) {
      run_traced(args, &served, &out);
    } else {
      std::uint64_t cursor = 0;
      quietest_phase([&] { return timed_phase(args, setup_s, &served, &cursor, &out); }, &out);
    }
  }
  return out;
}

}  // namespace qbench
