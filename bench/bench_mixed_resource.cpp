// Extension experiment (the paper's future-work direction): wire cutting
// with NOISY (mixed) NME resources. We depolarize the Bell pair with Werner
// noise p and compare
//  * the mixed-resource cut's overhead κ_mixed = (1+p)/(1−p),
//  * the Theorem-1 lower bound 2/f(ρ) − 1 evaluated via the fully entangled
//    fraction, and
//  * the measured estimation error at a fixed shot budget.
// Expected: κ_mixed tracks the bound with a modest constant gap, error grows
// smoothly with noise, and the estimator stays exactly unbiased throughout.
#include <cmath>
#include <cstdio>

#include "qcut/common/cli.hpp"
#include "qcut/common/csv.hpp"
#include "qcut/common/stats.hpp"
#include "qcut/cut/mixed_cut.hpp"
#include "qcut/ent/measures.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/sim/noise.hpp"

int main(int argc, char** argv) {
  using qcut::Real;
  qcut::Cli cli(argc, argv);
  const int n_states = static_cast<int>(cli.get_int("states", 200));
  const std::uint64_t shots = static_cast<std::uint64_t>(cli.get_int("shots", 2000));

  std::printf("=== Mixed-resource wire cut: Werner-noisy Bell pairs, %d states x %llu shots ===\n\n",
              n_states, static_cast<unsigned long long>(shots));
  std::printf("%8s %8s %12s %14s %12s %10s %12s\n", "p", "q_I", "kappa_mixed", "2/FEF-1 bound",
              "mean_error", "sem", "bias");
  qcut::CsvWriter csv("mixed_resource.csv",
                      {"p", "q_identity", "kappa_mixed", "theorem1_bound", "mean_error", "sem",
                       "bias"});

  for (Real p : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    const qcut::Matrix res = qcut::noisy_phi_k(1.0, p);
    const qcut::MixedNmeCut cut(res);
    const Real fef = qcut::fully_entangled_fraction(res);
    const Real bound = 2.0 / fef - 1.0;

    qcut::RunningStats err;
    qcut::RunningStats bias;  // signed error — must center on zero
    for (int s = 0; s < n_states; ++s) {
      qcut::Rng rng(777, static_cast<std::uint64_t>(s));
      qcut::CutInput input{qcut::haar_unitary(2, rng), 'Z'};
      const Real exact = qcut::uncut_expectation(input);
      const qcut::Qpd qpd = cut.build_qpd(input);
      const auto plan = qcut::ShotPlan::allocated(qpd, shots, qcut::AllocRule::kProportional);
      const auto resu = qcut::run_plan(qpd, plan, qcut::BatchedBranchBackend(qpd), rng());
      err.add(std::abs(resu.estimate - exact));
      bias.add(resu.estimate - exact);
    }
    std::printf("%8.2f %8.4f %12.4f %14.4f %12.6f %10.6f %12.2e\n", p, cut.q_identity(),
                cut.kappa(), bound, err.mean(), err.sem(), bias.mean());
    csv.row(std::vector<Real>{p, cut.q_identity(), cut.kappa(), bound, err.mean(), err.sem(),
                              bias.mean()});
  }
  std::printf(
      "\nExpected: unbiased at every noise level (bias ~ 0 within ~sem); kappa_mixed >=\n"
      "Theorem-1 bound, both rising with p; mean error tracks kappa/sqrt(N).\n");
  std::printf("wrote mixed_resource.csv\n");
  return 0;
}
