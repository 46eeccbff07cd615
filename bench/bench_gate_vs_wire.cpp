// Gate cut vs wire cut (Sec. V: "depending on the characteristics of the
// circuit, either a wire cut or gate cut can be more favorable").
//
// Scenario: two devices each own one qubit of a two-qubit circuit with a
// single CZ crossing the partition. Options:
//  * gate-cut the CZ (Mitarai-Fujii, κ = 3, no entanglement needed);
//  * wire-cut the control wire around the CZ so the whole interaction happens
//    on device B (κ = 2/f − 1 with an NME resource of quality f).
// Expected crossover: the wire cut wins once f > 1/2 — entanglement buys
// down the overhead, which plain gate cutting cannot; at f = 1/2 both sit at
// κ = 3. Extending the NME advantage to gate cuts is the paper's stated
// open question.
#include <cmath>
#include <cstdio>

#include "qcut/common/cli.hpp"
#include "qcut/common/csv.hpp"
#include "qcut/common/stats.hpp"
#include "qcut/cut/circuit_cutter.hpp"
#include "qcut/cut/gate_cut.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/linalg/bell.hpp"
#include "qcut/linalg/random.hpp"

int main(int argc, char** argv) {
  using qcut::Real;
  qcut::Cli cli(argc, argv);
  const int n_states = static_cast<int>(cli.get_int("states", 150));
  const std::uint64_t shots = static_cast<std::uint64_t>(cli.get_int("shots", 2000));

  std::printf("=== Gate cut vs NME wire cut on a partition-crossing CZ ===\n");
  std::printf("%d random two-qubit pre-circuits, %llu shots, observable ZZ\n\n", n_states,
              static_cast<unsigned long long>(shots));
  std::printf("%-24s %8s %12s %10s\n", "strategy", "kappa", "mean_error", "sem");
  qcut::CsvWriter csv("gate_vs_wire.csv", {"strategy", "kappa", "mean_error", "sem"});

  // Shared workload: U(2q) then CZ(0,1), estimate <ZZ>.
  auto make_base = [](qcut::Rng& rng) {
    qcut::Circuit base(2, 0);
    base.gate(qcut::haar_unitary(4, rng), {0, 1}, "U");
    return base;
  };

  // --- strategy 1: gate-cut the CZ ---
  {
    qcut::RunningStats err;
    Real kappa = 0.0;
    for (int s = 0; s < n_states; ++s) {
      qcut::Rng rng(1212, static_cast<std::uint64_t>(s));
      qcut::Circuit base = make_base(rng);
      qcut::Circuit with_cz = base;
      with_cz.cz(0, 1);
      const qcut::Qpd qpd = qcut::cut_cz_gate(base, 1, 0, 1, "ZZ");
      kappa = qpd.kappa();
      const std::uint64_t seed = rng();
      const auto plan = qcut::ShotPlan::sampled(qpd, shots, seed);
      const auto res = qcut::run_plan(qpd, plan, qcut::BatchedBranchBackend(qpd), seed);
      err.add(std::abs(res.estimate - qcut::uncut_circuit_expectation(with_cz, "ZZ")));
    }
    std::printf("%-24s %8.4f %12.6f %10.6f\n", "gate-cut CZ", kappa, err.mean(), err.sem());
    csv.row(std::vector<std::string>{"gate-cut", qcut::format_real(kappa),
                                     qcut::format_real(err.mean()),
                                     qcut::format_real(err.sem())});
  }

  // --- strategy 2: wire-cut qubit 0's wire before the CZ, per NME quality ---
  for (Real f : {0.5, 0.7, 0.9, 1.0}) {
    const qcut::NmeCut proto(qcut::k_for_overlap(f));
    qcut::RunningStats err;
    for (int s = 0; s < n_states; ++s) {
      qcut::Rng rng(1212, static_cast<std::uint64_t>(s));
      qcut::Circuit base = make_base(rng);
      qcut::Circuit with_cz = base;
      with_cz.cz(0, 1);
      // Cut wire 0 after the pre-circuit; the CZ then runs on device B.
      const qcut::Qpd qpd = qcut::cut_circuit(with_cz, {1, 0}, proto, "ZZ");
      const std::uint64_t seed = rng();
      const auto plan = qcut::ShotPlan::sampled(qpd, shots, seed);
      const auto res = qcut::run_plan(qpd, plan, qcut::BatchedBranchBackend(qpd), seed);
      err.add(std::abs(res.estimate - qcut::uncut_circuit_expectation(with_cz, "ZZ")));
    }
    char label[48];
    std::snprintf(label, sizeof(label), "wire-cut f=%.2f", f);
    std::printf("%-24s %8.4f %12.6f %10.6f\n", label, proto.kappa(), err.mean(), err.sem());
    csv.row(std::vector<std::string>{label, qcut::format_real(proto.kappa()),
                                     qcut::format_real(err.mean()),
                                     qcut::format_real(err.sem())});
  }
  std::printf(
      "\nExpected: gate cut ~ wire cut at f = 0.5 (both kappa = 3); with any real\n"
      "entanglement (f > 1/2) the paper's NME wire cut wins.\n");
  std::printf("wrote gate_vs_wire.csv\n");
  return 0;
}
