// Baseline comparison (Fig. 2 vs Fig. 5 protocols): mean error at a fixed
// shot budget for
//  * Peng et al. measure-and-prepare cut (κ = 4),
//  * Harada et al. optimal entanglement-free cut (κ = 3, the paper's f = 0.5
//    endpoint),
//  * Theorem-2 NME cuts across the f sweep,
//  * teleportation with a physical Bell pair (κ = 1, the f = 1.0 endpoint).
// Expected: errors ordered by κ; nme(f=0.5) ≈ harada; nme(f=1.0) ≈ teleport.
#include <cmath>
#include <cstdio>

#include "qcut/common/cli.hpp"
#include "qcut/common/csv.hpp"
#include "qcut/common/stats.hpp"
#include "qcut/core/cut_executor.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/linalg/bell.hpp"
#include "qcut/linalg/random.hpp"

namespace {

struct Entry {
  std::string label;
  std::shared_ptr<const qcut::WireCutProtocol> proto;
};

}  // namespace

int main(int argc, char** argv) {
  using qcut::Real;
  qcut::Cli cli(argc, argv);
  const int n_states = static_cast<int>(cli.get_int("states", 250));
  const std::uint64_t shots = static_cast<std::uint64_t>(cli.get_int("shots", 2000));

  std::vector<Entry> entries;
  entries.push_back(
      {"peng (kappa=4)", qcut::make_wire_protocol({qcut::ProtocolId::kPeng, 0.0})});
  entries.push_back(
      {"harada (kappa=3)", qcut::make_wire_protocol({qcut::ProtocolId::kHarada, 0.0})});
  for (Real f : {0.5, 0.6, 0.7, 0.8, 0.9}) {
    const Real k = qcut::k_for_overlap(f);
    entries.push_back({"nme f=" + std::to_string(f).substr(0, 4),
                       qcut::make_wire_protocol({qcut::ProtocolId::kNme, k})});
  }
  entries.push_back(
      {"teleport (kappa=1)", qcut::make_wire_protocol({qcut::ProtocolId::kTeleport, 0.0})});

  std::printf("=== Baselines: mean |error| of <Z>, %d random states, %llu shots each ===\n\n",
              n_states, static_cast<unsigned long long>(shots));
  std::printf("%-22s %8s %12s %10s %14s\n", "protocol", "kappa", "mean_error", "sem",
              "err*sqrt(N)/k");
  qcut::CsvWriter csv("baselines.csv", {"protocol", "kappa", "mean_error", "sem"});

  for (const auto& e : entries) {
    qcut::RunningStats err;
    for (int s = 0; s < n_states; ++s) {
      qcut::Rng rng(4242, static_cast<std::uint64_t>(s));
      qcut::CutInput input{qcut::haar_unitary(2, rng), 'Z'};
      const Real exact = qcut::uncut_expectation(input);
      const qcut::Qpd qpd = e.proto->build_qpd(input);
      const auto plan = qcut::ShotPlan::allocated(qpd, shots, qcut::AllocRule::kProportional);
      const auto res = qcut::run_plan(qpd, plan, qcut::BatchedBranchBackend(qpd), rng());
      err.add(std::abs(res.estimate - exact));
    }
    const Real kappa = e.proto->kappa();
    std::printf("%-22s %8.4f %12.6f %10.6f %14.4f\n", e.label.c_str(), kappa, err.mean(),
                err.sem(), err.mean() * std::sqrt(static_cast<Real>(shots)) / kappa);
    csv.row(std::vector<std::string>{e.label, qcut::format_real(kappa),
                                     qcut::format_real(err.mean()), qcut::format_real(err.sem())});
  }
  std::printf("\nExpected: error ordered by kappa; the last column (normalized error) is ~flat.\n");
  std::printf("wrote baselines.csv\n");
  return 0;
}
