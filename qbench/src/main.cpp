// qbench_driver: runs one benchmark workload and prints its metrics.
//
//   qbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                 --server-bin PATH --work-dir DIR
//
// stdout: a fingerprint line, the workload's generator parameters, the
// host's CPU steal during the run, then as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the end-to-end metrics of a timed run;
// --trace 1 the per-layer metrics of a traced run. Exit code 0 only when
// every answer checked out; 1 on a wrong answer or failed request; 2 on a
// usage or set-up error (no result line).
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "driver.hpp"
#include "probe.hpp"
#include "stages.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "qbench_driver: %s\nusage: qbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --server-bin PATH --work-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  qbench::RunArgs args;
  args.start_ns = qbench::now_ns();
  std::string workload;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) {
        return usage(("missing value for " + flag).c_str());
      }
      const std::string value = argv[++i];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--server-bin") {
        args.server_bin = value;
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  args.spec = qbench::find_workload(workload);
  if (args.spec == nullptr) {
    return usage(("unknown workload '" + workload + "'").c_str());
  }
  if (!(args.seconds > 0.0)) {
    return usage("--seconds must be positive");
  }
  if (args.spec->daemon && (args.server_bin.empty() || args.work_dir.empty())) {
    return usage("the daemon workload needs --server-bin and --work-dir");
  }

  std::printf("fingerprint %s\n", qbench::fingerprint_json().c_str());
  std::printf("generator %s\n", qbench::generator_json(*args.spec, args.seed).c_str());
  std::fflush(stdout);
  try {
    const qbench::HostSteal steal;
    qbench::RunOutcome out =
        args.spec->daemon ? qbench::run_daemon(args) : qbench::run_inprocess(args);
    if (out.phase_steal.empty()) {
      out.steal = steal.share();  // traced run: steal over the whole run
    }
    std::string phases;
    for (double s : out.phase_steal) {
      phases += (phases.empty() ? "" : ", ") + std::to_string(s);
    }
    std::printf("host {\"cpu_steal_share\": %.4f, \"phase_steal\": [%s]}\n", out.steal,
                phases.c_str());
    for (const qbench::Metric& m : out.metrics) {
      std::fprintf(stderr, "  %-28s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("%s\n",
                qbench::result_json(out.correct, out.attempted, out.failed, out.metrics).c_str());
    return out.correct && out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qbench_driver: %s\n", e.what());
    return 2;
  }
}
