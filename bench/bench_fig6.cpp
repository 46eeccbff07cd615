// Reproduces Figure 6: average error of the cut ⟨Z⟩ estimate vs total shots,
// for entanglement levels f(Φk) ∈ {0.5, 0.6, 0.7, 0.8, 0.9, 1.0}.
//
// The default is the paper's Sec. IV configuration: 1000 Haar-random states
// per point. --states N runs a smaller sweep, --seed S another draw, and
// --threads T a T-worker pool (the output is the same for every T). Output:
// aligned table on stdout plus fig6.csv for replotting.
//
// Expected shape (paper): curves ordered by f — higher entanglement, lower
// error; f = 1.0 is the pure-teleportation statistical floor; f = 0.5 is
// entanglement-free wire cutting with κ = 3. At ≥ 1000 states the run checks
// that shape and exits 1 when it breaks:
//  * at every shot count, mean_error falls strictly as f rises;
//  * every mean_error / (κ/√shots) lies in [kRatioLo, kRatioHi]. The error
//    of an unbiased estimate with standard deviation σ ≤ κ/√shots averages
//    about √(2/π)·σ, so the ratio sits below 0.8; the band is set from the
//    ratios seen over several seeds at 1000 states, with margin.
// With far fewer states, neighbouring f values swap by chance, so smaller
// sweeps skip the check.
#include <cmath>
#include <cstdio>

#include "qcut/common/cli.hpp"
#include "qcut/common/csv.hpp"
#include "qcut/core/experiment.hpp"
#include "../tests/pool_scope.hpp"

namespace {

constexpr int kCheckStates = 1000;
constexpr qcut::Real kRatioLo = 0.5;
constexpr qcut::Real kRatioHi = 0.9;

/// mean_error in units of the κ/√shots bound on the estimate's spread.
qcut::Real normalized_error(const qcut::Fig6Row& r) {
  return r.mean_error * std::sqrt(static_cast<qcut::Real>(r.shots)) / r.kappa;
}

/// Prints every broken shape condition; returns how many there were. Rows
/// come ordered by (f, shots), `grid` shot counts per f, f ascending.
int shape_violations(const std::vector<qcut::Fig6Row>& rows, std::size_t grid) {
  int bad = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const qcut::Fig6Row& r = rows[i];
    const qcut::Real ratio = normalized_error(r);
    if (!(ratio >= kRatioLo && ratio <= kRatioHi)) {
      std::printf("SHAPE: f=%.2f shots=%llu: mean_error/(kappa/sqrt(shots)) = %.3f outside "
                  "[%.2f, %.2f]\n",
                  r.f, static_cast<unsigned long long>(r.shots), ratio, kRatioLo, kRatioHi);
      ++bad;
    }
    if (i >= grid && !(r.mean_error < rows[i - grid].mean_error)) {
      const qcut::Fig6Row& prev = rows[i - grid];
      std::printf("SHAPE: shots=%llu: mean_error %.6f at f=%.2f is not below %.6f at f=%.2f\n",
                  static_cast<unsigned long long>(r.shots), r.mean_error, r.f, prev.mean_error,
                  prev.f);
      ++bad;
    }
  }
  return bad;
}

}  // namespace

int main(int argc, char** argv) {
  qcut::Cli cli(argc, argv);
  qcut::Fig6Config cfg;
  cfg.n_states = static_cast<int>(cli.get_int("states", 1000));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 20240320));
  // 0 → hardware concurrency. Results are thread-count independent (per-state
  // RNG streams; branch-cached execution inside each state task).
  const auto n_threads = static_cast<std::size_t>(cli.get_int("threads", 0));
  qcut::ThreadPool pool(n_threads);

  std::printf("=== Fig. 6: average error vs shots, by entanglement level f(Phi_k) ===\n");
  std::printf("states per point: %d, shot grid 250..5000, observable Z\n", cfg.n_states);

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

  qcut::Real lo = INFINITY, hi = 0.0;
  for (const auto& r : rows) {
    lo = std::fmin(lo, normalized_error(r));
    hi = std::fmax(hi, normalized_error(r));
  }
  std::printf("mean_error/(kappa/sqrt(shots)): %.3f..%.3f over %zu points (band %.2f..%.2f)\n",
              lo, hi, rows.size(), kRatioLo, kRatioHi);
  if (cfg.n_states < kCheckStates) {
    std::printf("shape check: skipped below %d states\n", kCheckStates);
    return 0;
  }
  const int bad = shape_violations(rows, cfg.shot_grid.size());
  std::printf("shape check: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}
