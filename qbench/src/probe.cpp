#include "probe.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "qcut/obs/run_report.hpp"

namespace qbench {

namespace {

std::string proc_path(pid_t pid, const char* leaf) {
  return "/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid)) + "/" + leaf;
}

/// (steal, total) jiffies from the aggregate "cpu" line of /proc/stat.
std::pair<unsigned long long, unsigned long long> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  unsigned long long steal = 0, total = 0, v = 0;
  for (int field = 0; field < 10 && in >> v; ++field) {
    total += v;
    if (field == 7) {
      steal = v;
    }
  }
  return {steal, total};
}

}  // namespace

double cpu_seconds(pid_t pid) {
  if (pid == 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  }
  std::ifstream in(proc_path(pid, "stat"));
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("cannot read " + proc_path(pid, "stat"));
  }
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int i = 3; i < 14; ++i) {
    fields >> skip;
  }
  unsigned long long utime = 0, stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in(proc_path(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("no VmHWM in " + proc_path(pid, "status"));
}

HostSteal::HostSteal() { std::tie(steal_, total_) = cpu_jiffies(); }

double HostSteal::share() const {
  const auto [steal, total] = cpu_jiffies();
  return total > total_ ? static_cast<double>(steal - steal_) / static_cast<double>(total - total_)
                        : 0.0;
}

std::string fingerprint_json() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  // provenance_json is multi-line; the fingerprint is printed as one line.
  std::string prov;
  std::istringstream lines(qcut::obs::provenance_json());
  while (std::getline(lines, line)) {
    const std::size_t start = line.find_first_not_of(' ');
    prov += (prov.empty() || start == std::string::npos ? "" : " ") +
            (start == std::string::npos ? "" : line.substr(start));
  }
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"cpu_model\": \"" << model
     << "\", \"provenance\": " << prov << "}";
  return os.str();
}

}  // namespace qbench
