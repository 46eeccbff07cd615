// qcut-server: the estimation daemon. Binds, prints the bound port, serves
// until SIGINT/SIGTERM — SIGTERM (and the first SIGINT) triggers a graceful
// drain: stop accepting, let in-flight requests finish within --drain-ms,
// then cancel the rest (their clients get clean `cancelled` responses).
//
//   qcut-server [--host 127.0.0.1] [--port 0] [--workers N]
//               [--max-inflight N] [--max-deadline-ms MS] [--drain-ms MS]
//               [--port-file PATH]
//
// --port 0 (the default) binds an ephemeral port; scripts read it from the
// "listening on HOST:PORT" stdout line or from --port-file (written once the
// socket is live, so waiting for the file is a race-free readiness check).
// --max-deadline-ms clamps (and, when clients ask for nothing, imposes) the
// per-request deadline; 0 disables the ceiling. --plan-cache / --eval-cache
// set the plan and eval cache capacities (at least 1). A malformed or
// out-of-range flag prints "qcut-server: <reason>" and exits 1.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "qcut/common/cli.hpp"
#include "qcut/common/error.hpp"
#include "qcut/svc/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

/// --<key> as a count of at least `min` (`def` when absent).
std::uint64_t get_count(const qcut::Cli& cli, const std::string& key, std::int64_t def,
                        std::int64_t min) {
  const std::int64_t v = cli.get_int(key, def);
  if (v < min) {
    throw qcut::Error("--" + key + " must be >= " + std::to_string(min));
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

int main(int argc, char** argv) {
  qcut::Cli cli(argc, argv);

  qcut::svc::ServerConfig cfg;
  cfg.host = cli.get("host", "127.0.0.1");
  const std::string port_file = cli.get("port-file", "");

  try {
    cfg.port = static_cast<int>(cli.get_int("port", 0));
    cfg.workers = get_count(cli, "workers", 0, 0);
    cfg.max_inflight = get_count(cli, "max-inflight", 0, 0);
    cfg.caches.plan_capacity = get_count(cli, "plan-cache", 64, 1);
    cfg.caches.eval_capacity = get_count(cli, "eval-cache", 32, 1);
    cfg.max_deadline_ms = get_count(cli, "max-deadline-ms", 0, 0);
    cfg.drain_ms = get_count(cli, "drain-ms", 2000, 0);

    qcut::svc::QcutServer server(cfg);
    server.start();
    std::printf("qcut-server listening on %s:%d\n", cfg.host.c_str(), server.port());
    std::fflush(stdout);
    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << server.port() << "\n";
    }

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    sigset_t mask;
    sigemptyset(&mask);
    while (g_stop == 0) {
      sigsuspend(&mask);  // sleep until a signal arrives
    }
    std::printf("qcut-server: draining (budget %llu ms)\n",
                static_cast<unsigned long long>(cfg.drain_ms));
    std::fflush(stdout);
    const bool clean = server.drain();
    std::printf("qcut-server: %s\n", clean ? "drained cleanly" : "drained with cancellations");
  } catch (const qcut::Error& e) {
    std::fprintf(stderr, "qcut-server: %s\n", e.what());
    return 1;
  }
  return 0;
}
