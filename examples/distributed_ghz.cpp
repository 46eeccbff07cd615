// Distributed estimation across two simulated devices: the workload the
// paper's introduction motivates.
//
// Two independent wires carry rotated states; both are cut with NME
// resources so that "device B" only ever receives classical bits plus its
// half of each |Φk⟩ pair. We estimate the joint parity ⟨Z ⊗ Z⟩ through the
// product QPD and show how the total overhead κ² (and thus the error at a
// fixed budget) depends on the entanglement available.
#include <cmath>
#include <cstdio>

#include "qcut/common/cli.hpp"
#include "qcut/common/stats.hpp"
#include "qcut/cut/multiwire.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/linalg/bell.hpp"
#include "qcut/sim/gates.hpp"

int main(int argc, char** argv) {
  using namespace qcut;
  Cli cli(argc, argv);
  const std::uint64_t shots = static_cast<std::uint64_t>(cli.get_int("shots", 4000));
  const int trials = static_cast<int>(cli.get_int("trials", 60));

  const Real theta_a = 0.6, theta_b = 1.1;
  const Real exact = std::cos(theta_a) * std::cos(theta_b);
  std::printf("two cut wires, inputs Ry(%.1f)|0> and Ry(%.1f)|0>\n", theta_a, theta_b);
  std::printf("joint observable <Z x Z>, exact value %.6f\n\n", exact);
  std::printf("%8s %12s %14s %12s\n", "f", "kappa_tot", "mean_error", "sem");

  for (Real f : {0.5, 0.7, 0.9, 1.0}) {
    const NmeCut proto(k_for_overlap(f));
    const std::vector<const WireCutProtocol*> protos = {&proto, &proto};
    const std::vector<CutInput> inputs = {{gates::ry(theta_a), 'Z'}, {gates::ry(theta_b), 'Z'}};
    const Qpd joint = product_qpd(protos, inputs);
    const BatchedBranchBackend backend(joint);

    RunningStats err;
    for (int t = 0; t < trials; ++t) {
      const std::uint64_t seed = Rng(4040, static_cast<std::uint64_t>(t))();
      const auto res = run_plan(joint, ShotPlan::sampled(joint, shots, seed), backend, seed);
      err.add(std::abs(res.estimate - exact));
    }
    std::printf("%8.2f %12.4f %14.6f %12.6f\n", f, joint.kappa(), err.mean(), err.sem());
  }
  std::printf(
      "\nWith f = 1.0 both wires teleport (kappa = 1): only statistical noise remains.\n"
      "With f = 0.5 the product overhead is 3^2 = 9: the exponential cost of cutting.\n");
  return 0;
}
