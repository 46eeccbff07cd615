// Reproduces Figure 6: average error of the cut ⟨Z⟩ estimate vs total shots,
// for entanglement levels f(Φk) ∈ {0.5, 0.6, 0.7, 0.8, 0.9, 1.0}.
//
// Defaults run a 200-state sweep (seconds); pass --paper for the full
// 1000-state configuration of Sec. IV. Output: aligned table on stdout plus
// fig6.csv for replotting.
//
// Expected shape (paper): curves ordered by f — higher entanglement, lower
// error; f = 1.0 is the pure-teleportation statistical floor; f = 0.5 is
// entanglement-free wire cutting with κ = 3.
#include <cstdio>

#include "qcut/common/cli.hpp"
#include "qcut/common/csv.hpp"
#include "qcut/core/experiment.hpp"
#include "../tests/pool_scope.hpp"

int main(int argc, char** argv) {
  qcut::Cli cli(argc, argv);
  qcut::Fig6Config cfg;
  // Default IS the paper's configuration (1000 Haar-random states); --states
  // overrides for quick sweeps. (--paper retained for compatibility.)
  cfg.n_states = cli.get_bool("paper", false) ? 1000 : static_cast<int>(cli.get_int("states", 1000));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 20240320));
  // 0 → hardware concurrency. Results are thread-count independent (per-state
  // RNG streams; branch-cached execution inside each state task).
  const auto n_threads = static_cast<std::size_t>(cli.get_int("threads", 0));
  qcut::ThreadPool pool(n_threads);

  std::printf("=== Fig. 6: average error vs shots, by entanglement level f(Phi_k) ===\n");
  std::printf("states per point: %d, shot grid 250..5000, observable Z, %zu threads\n",
              cfg.n_states, pool.size());

  const auto rows = [&] {
    const qcut::testing::ScopedPool scope(pool);
    return qcut::run_fig6(cfg);
  }();
  std::printf("%s\n", qcut::format_fig6(rows).c_str());

  qcut::CsvWriter csv("fig6.csv", {"f", "shots", "mean_error", "sem", "kappa"});
  for (const auto& r : rows) {
    csv.row(std::vector<qcut::Real>{r.f, static_cast<qcut::Real>(r.shots), r.mean_error, r.sem,
                                    r.kappa});
  }
  std::printf("wrote %s\n", csv.path().c_str());

  // Shape assertions (who wins, by roughly what factor) so a regression is
  // loud even in an unattended run.
  const auto& last_block = rows;
  qcut::Real err_low_f = 0, err_high_f = 0;
  for (const auto& r : last_block) {
    if (r.shots == 5000 && r.f == 0.5) {
      err_low_f = r.mean_error;
    }
    if (r.shots == 5000 && r.f == 1.0) {
      err_high_f = r.mean_error;
    }
  }
  std::printf("error(f=0.5)/error(f=1.0) at 5000 shots: %.2f (theory ~ kappa ratio = 3)\n",
              err_low_f / err_high_f);
  return 0;
}
