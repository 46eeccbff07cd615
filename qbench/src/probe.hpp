// Process-level probes, read from outside the program: CPU time, peak
// resident memory, and the machine fingerprint printed with every run.
#pragma once

#include <string>
#include <sys/types.h>

namespace qbench {

/// User + system CPU seconds of process `pid` (0: this process).
double cpu_seconds(pid_t pid);

/// VmHWM of process `pid` (0: this process), in MiB.
double peak_rss_mb(pid_t pid);

/// Share of all CPU time the hypervisor stole from the machine since
/// construction (the steal column of /proc/stat). On shared virtual
/// machines it explains most run-to-run spread, so every run reports it.
class HostSteal {
 public:
  HostSteal();
  double share() const;

 private:
  unsigned long long steal_ = 0, total_ = 0;
};

/// {"nproc": ..., "cpu_model": ..., "provenance": {...}} — provenance carries
/// the SIMD tier and the git SHA the library was configured at.
std::string fingerprint_json();

}  // namespace qbench
