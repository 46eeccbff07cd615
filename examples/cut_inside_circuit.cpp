// Cutting a wire INSIDE a circuit — the end-to-end distribution workflow.
//
// A 3-qubit GHZ-style circuit is too wide for either of our (hypothetical)
// 2-qubit devices. We cut the middle wire between the two CX gates: device A
// executes H(0), CX(0,1) and the sender half of the cut; device B receives
// the wire and executes CX(->2) plus the measurements. Every emitted
// subcircuit is also exported as OpenQASM 2.0, ready for real hardware.
//
// Run:  ./examples/cut_inside_circuit [--f 0.8] [--shots 4000] [--qasm]
#include <cstdio>

#include "qcut/common/cli.hpp"
#include "qcut/common/stats.hpp"
#include "qcut/cut/circuit_cutter.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/linalg/bell.hpp"
#include "qcut/sim/qasm.hpp"

int main(int argc, char** argv) {
  using namespace qcut;
  Cli cli(argc, argv);
  const Real f = cli.get_real("f", 0.8);
  const std::uint64_t shots = static_cast<std::uint64_t>(cli.get_int("shots", 4000));

  // The circuit to distribute: |GHZ⟩ = (|000⟩ + |111⟩)/√2.
  Circuit ghz(3);
  ghz.h(0).cx(0, 1).cx(1, 2);
  std::printf("original circuit:\n%s\n", ghz.to_string().c_str());

  // Cut wire 1 between the CXs; estimate the GHZ witness terms.
  const NmeCut proto(k_for_overlap(f));
  std::printf("cut: wire 1 after op 2, protocol %s, kappa = %.4f\n\n", proto.name().c_str(),
              proto.kappa());

  for (const char* obs : {"XXX", "ZZI", "IZZ"}) {
    const Qpd qpd = cut_circuit(ghz, {/*after_op=*/2, /*qubit=*/1}, proto, obs);
    const BatchedBranchBackend backend(qpd);
    const Real exact = uncut_circuit_expectation(ghz, obs);

    RunningStats stats;
    for (int t = 0; t < 25; ++t) {
      const std::uint64_t seed = Rng(2024, static_cast<std::uint64_t>(t))();
      stats.add(run_plan(qpd, ShotPlan::sampled(qpd, shots, seed), backend, seed).estimate);
    }
    std::printf("<%s>: exact %+.4f   cut estimate %+.4f +- %.4f  (%llu shots x 25 runs)\n",
                obs, exact, stats.mean(), stats.sem(),
                static_cast<unsigned long long>(shots));
  }

  if (cli.get_bool("qasm", false)) {
    const Qpd qpd = cut_circuit(ghz, {2, 1}, proto, "XXX");
    for (const auto& term : qpd.terms()) {
      std::printf("\n// ---- fragment '%s' (coefficient %+.4f) ----\n%s", term.label.c_str(),
                  term.coefficient, to_qasm(term.circuit).c_str());
    }
  } else {
    std::printf("\n(pass --qasm to print the OpenQASM 2.0 export of each fragment)\n");
  }
  return 0;
}
