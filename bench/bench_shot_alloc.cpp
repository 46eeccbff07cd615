// Ablation: shot-allocation rules. The paper distributes the budget across
// subcircuits proportionally to |c_i| (Sec. IV); we compare that against
// largest-remainder rounding and Neyman allocation (which uses the exact
// per-term outcome variances — the statistically optimal split).
//
// All three rules run through the execution engine's plan abstraction:
// ShotPlan::allocated handles the split (including Neyman's σ weights) and a
// shared BatchedBranchBackend serves every budget from one branch
// enumeration per state.
#include <cmath>
#include <cstdio>

#include "qcut/common/cli.hpp"
#include "qcut/common/csv.hpp"
#include "qcut/common/stats.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/linalg/bell.hpp"
#include "qcut/linalg/random.hpp"

int main(int argc, char** argv) {
  using qcut::Real;
  qcut::Cli cli(argc, argv);
  const int n_states = static_cast<int>(cli.get_int("states", 250));
  const Real f = cli.get_real("f", 0.7);
  const Real k = qcut::k_for_overlap(f);
  const qcut::NmeCut proto(k);

  std::printf("=== Shot allocation ablation at f = %.2f (kappa = %.4f) ===\n\n", f,
              proto.kappa());
  std::printf("%8s %-18s %12s %10s\n", "shots", "rule", "mean_error", "sem");
  qcut::CsvWriter csv("shot_alloc.csv", {"shots", "rule", "mean_error", "sem"});

  const std::vector<std::pair<qcut::AllocRule, const char*>> rules = {
      {qcut::AllocRule::kProportional, "proportional"},
      {qcut::AllocRule::kLargestRemainder, "largest-remainder"},
      {qcut::AllocRule::kNeyman, "neyman"},
  };
  const std::vector<std::uint64_t> budgets = {200, 1000, 5000};

  // err[budget][rule]
  std::vector<std::vector<qcut::RunningStats>> err(
      budgets.size(), std::vector<qcut::RunningStats>(rules.size()));

  for (int s = 0; s < n_states; ++s) {
    qcut::Rng state_rng(808, static_cast<std::uint64_t>(s));
    const qcut::CutInput input{qcut::haar_unitary(2, state_rng), 'Z'};
    const Real exact = qcut::uncut_expectation(input);
    const qcut::Qpd qpd = proto.build_qpd(input);
    const qcut::BatchedBranchBackend backend(qpd);
    const auto probs = backend.cache().all_prob_one();

    // Neyman weights: per-term outcome std deviations σ_i = 2√(p(1−p)).
    std::vector<Real> sigmas;
    sigmas.reserve(qpd.size());
    for (Real p : probs) {
      sigmas.push_back(2.0 * std::sqrt(p * (1.0 - p)));
    }

    for (std::size_t b = 0; b < budgets.size(); ++b) {
      for (std::size_t r = 0; r < rules.size(); ++r) {
        const auto plan = qcut::ShotPlan::allocated(
            qpd, budgets[b], rules[r].first,
            rules[r].first == qcut::AllocRule::kNeyman ? &sigmas : nullptr);
        // Identical seed per rule at fixed (state, budget): paired comparison.
        const std::uint64_t seed = qcut::Rng(808 + budgets[b], static_cast<std::uint64_t>(s))();
        const auto res = qcut::run_plan(qpd, plan, backend, seed);
        err[b][r].add(std::abs(res.estimate - exact));
      }
    }
  }

  for (std::size_t b = 0; b < budgets.size(); ++b) {
    for (std::size_t r = 0; r < rules.size(); ++r) {
      std::printf("%8llu %-18s %12.6f %10.6f\n",
                  static_cast<unsigned long long>(budgets[b]), rules[r].second,
                  err[b][r].mean(), err[b][r].sem());
      csv.row(std::vector<std::string>{std::to_string(budgets[b]), rules[r].second,
                                       qcut::format_real(err[b][r].mean()),
                                       qcut::format_real(err[b][r].sem())});
    }
  }
  std::printf(
      "\nExpected: proportional (the paper's rule) and largest-remainder agree; Neyman is\n"
      "equal or slightly better since it exploits per-term variances.\n");
  std::printf("wrote shot_alloc.csv\n");
  return 0;
}
