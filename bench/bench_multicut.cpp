// Multi-cut scaling (Sec. V / the paper's motivation): cutting n wires
// independently costs κ_total = κⁿ — exponential in n — and the error at a
// fixed budget grows accordingly. NME resources shrink the base κ, taming the
// exponential. We cut n ∈ {1..4} wires and report theoretical κⁿ plus the
// measured error of the joint parity estimate.
#include <cmath>
#include <cstdio>

#include "qcut/common/cli.hpp"
#include "qcut/common/csv.hpp"
#include "qcut/common/stats.hpp"
#include "qcut/cut/multiwire.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/linalg/bell.hpp"
#include "qcut/sim/gates.hpp"

int main(int argc, char** argv) {
  using qcut::Real;
  qcut::Cli cli(argc, argv);
  const std::uint64_t shots = static_cast<std::uint64_t>(cli.get_int("shots", 3000));
  const int trials = static_cast<int>(cli.get_int("trials", 80));

  std::printf("=== Multi-wire cuts: kappa^n scaling, %llu shots, %d trials ===\n\n",
              static_cast<unsigned long long>(shots), trials);
  std::printf("%8s %6s %12s %12s %12s\n", "f", "wires", "kappa_tot", "mean_error", "sem");
  qcut::CsvWriter csv("multicut.csv", {"f", "wires", "kappa_total", "mean_error", "sem"});

  for (Real f : {0.5, 0.8, 1.0}) {
    const Real k = qcut::k_for_overlap(f);
    const qcut::NmeCut proto(k);
    for (int wires = 1; wires <= 4; ++wires) {
      std::vector<const qcut::WireCutProtocol*> protos(static_cast<std::size_t>(wires), &proto);
      std::vector<qcut::CutInput> inputs;
      Real exact = 1.0;
      for (int w = 0; w < wires; ++w) {
        const Real theta = 0.5 + 0.3 * static_cast<Real>(w);
        inputs.push_back({qcut::gates::ry(theta), 'Z'});
        exact *= std::cos(theta);
      }
      const qcut::Qpd joint = qcut::product_qpd(protos, inputs);
      const qcut::BatchedBranchBackend backend(joint);

      qcut::RunningStats err;
      for (int t = 0; t < trials; ++t) {
        const auto stream = static_cast<std::uint64_t>(t) * 100 + static_cast<std::uint64_t>(wires);
        const std::uint64_t seed = qcut::Rng(31337, stream)();
        const auto plan = qcut::ShotPlan::sampled(joint, shots, seed);
        const auto res = qcut::run_plan(joint, plan, backend, seed);
        err.add(std::abs(res.estimate - exact));
      }
      std::printf("%8.2f %6d %12.4f %12.6f %12.6f\n", f, wires, joint.kappa(), err.mean(),
                  err.sem());
      csv.row(std::vector<Real>{f, static_cast<Real>(wires), joint.kappa(), err.mean(),
                                err.sem()});
    }
  }
  std::printf(
      "\nExpected: kappa_tot = kappa^n (81 at f=0.5, n=4; exactly 1 at f=1.0 for all n);\n"
      "error grows ~kappa^n/sqrt(N) — NME resources tame the exponential.\n");
  std::printf("wrote multicut.csv\n");
  return 0;
}
