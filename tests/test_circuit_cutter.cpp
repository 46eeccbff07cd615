// Generic circuit cutting: splicing gadgets into arbitrary unitary circuits.
// The master property: for every protocol, cut position, wire, and Pauli
// observable, the QPD's exact value equals the uncut circuit's expectation.
#include <gtest/gtest.h>

#include <cmath>

#include "qcut/common/stats.hpp"
#include "qcut/cut/circuit_cutter.hpp"
#include "qcut/cut/distill_cut.hpp"
#include "qcut/cut/harada_cut.hpp"
#include "qcut/cut/mixed_cut.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/cut/peng_cut.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/qpd/estimator.hpp"
#include "qcut/sim/gates.hpp"
#include "qcut/sim/noise.hpp"
#include "test_helpers.hpp"

namespace qcut {
namespace {

using testing::random_unitary_circuit;

TEST(CircuitCutter, GhzCircuitCutInTheMiddle) {
  // H(0), CX(0,1), CX(1,2): cut the q1 wire between the CXs.
  Circuit ghz(3, 0);
  ghz.h(0).cx(0, 1).cx(1, 2);
  const NmeCut proto(0.7);
  for (const char* obs : {"ZZZ", "ZIZ", "IZZ", "XXX"}) {
    const Qpd qpd = cut_circuit(ghz, {/*after_op=*/2, /*qubit=*/1}, proto, obs);
    EXPECT_NEAR(exact_value(qpd), uncut_circuit_expectation(ghz, obs), 1e-9) << obs;
  }
}

TEST(CircuitCutter, GhzKnownValues) {
  Circuit ghz(3, 0);
  ghz.h(0).cx(0, 1).cx(1, 2);
  // GHZ: ⟨ZZZ⟩ = 0, ⟨XXX⟩ = 1, ⟨ZZI⟩ = 1.
  EXPECT_NEAR(uncut_circuit_expectation(ghz, "ZZZ"), 0.0, 1e-10);
  EXPECT_NEAR(uncut_circuit_expectation(ghz, "XXX"), 1.0, 1e-10);
  const HaradaCut proto;
  EXPECT_NEAR(exact_value(cut_circuit(ghz, {2, 1}, proto, "XXX")), 1.0, 1e-9);
  EXPECT_NEAR(exact_value(cut_circuit(ghz, {2, 1}, proto, "ZZI")), 1.0, 1e-9);
}

struct CutCase {
  const char* proto_name;
  Real k;
};

class CutterProtocolTest : public ::testing::TestWithParam<CutCase> {
 protected:
  std::unique_ptr<WireCutProtocol> make() const {
    const auto& pc = GetParam();
    const std::string n = pc.proto_name;
    if (n == "harada") return std::make_unique<HaradaCut>();
    if (n == "peng") return std::make_unique<PengCut>();
    if (n == "teleport") return std::make_unique<TeleportCut>();
    if (n == "nme") return std::make_unique<NmeCut>(pc.k);
    if (n == "distill") return std::make_unique<DistillCut>(pc.k);
    if (n == "mixed") return std::make_unique<MixedNmeCut>(noisy_phi_k(1.0, pc.k));
    throw Error("unknown");
  }
};

TEST_P(CutterProtocolTest, RandomCircuitsAllPositionsExact) {
  const auto proto = make();
  Rng rng(91);
  for (int trial = 0; trial < 3; ++trial) {
    const int n = 3;
    Circuit circ = random_unitary_circuit(n, 4, rng);
    for (int wire = 0; wire < n; ++wire) {
      const std::size_t pos = 1 + rng.uniform_u64(circ.size() - 1);
      const Qpd qpd = cut_circuit(circ, {pos, wire}, *proto, "ZXZ");
      EXPECT_NEAR(exact_value(qpd), uncut_circuit_expectation(circ, "ZXZ"), 1e-8)
          << "wire=" << wire << " pos=" << pos;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, CutterProtocolTest,
    ::testing::Values(CutCase{"harada", 0}, CutCase{"peng", 0}, CutCase{"teleport", 1},
                      CutCase{"nme", 0.5}, CutCase{"nme", 1.0}, CutCase{"distill", 0.5},
                      CutCase{"mixed", 0.3}),
    [](const ::testing::TestParamInfo<CutCase>& info) {
      return std::string(info.param.proto_name) +
             std::to_string(static_cast<int>(info.param.k * 100));
    });

TEST(CircuitCutter, CutAtCircuitBoundaries) {
  Rng rng(92);
  Circuit circ = random_unitary_circuit(2, 3, rng);
  const NmeCut proto(0.8);
  // Cut before any op (the wire starts in |0⟩) and after the last op.
  for (std::size_t pos : {std::size_t{0}, circ.size()}) {
    const Qpd qpd = cut_circuit(circ, {pos, 0}, proto, "ZZ");
    EXPECT_NEAR(exact_value(qpd), uncut_circuit_expectation(circ, "ZZ"), 1e-9) << pos;
  }
}

TEST(CircuitCutter, EstimatorConvergesOnCutGhz) {
  Circuit ghz(3, 0);
  ghz.h(0).cx(0, 1).cx(1, 2);
  const NmeCut proto(0.9);
  const Qpd qpd = cut_circuit(ghz, {2, 1}, proto, "XXX");
  const BatchedBranchBackend backend(qpd);
  RunningStats stats;
  for (int t = 0; t < 200; ++t) {
    const std::uint64_t seed = Rng(93, static_cast<std::uint64_t>(t))();
    stats.add(run_plan(qpd, ShotPlan::sampled(qpd, 500, seed), backend, seed).estimate);
  }
  EXPECT_NEAR(stats.mean(), 1.0, 5.0 * stats.sem() + 1e-6);
}

TEST(CircuitCutter, ObservableOnCutWireOnly) {
  // Only the cut wire is measured: the estimate must still be exact.
  Rng rng(94);
  Circuit circ = random_unitary_circuit(3, 5, rng);
  const HaradaCut proto;
  const Qpd qpd = cut_circuit(circ, {3, 2}, proto, "IIZ");
  EXPECT_NEAR(exact_value(qpd), uncut_circuit_expectation(circ, "IIZ"), 1e-9);
}

TEST(CircuitCutter, MultiTermObservablesViaSeparateCuts) {
  // ⟨H⟩ for H = 0.5·ZZ + 0.25·XI decomposes into two cut estimates.
  Circuit circ(2, 0);
  circ.h(0).cx(0, 1).rz(1, 0.7);
  const NmeCut proto(0.6);
  const Real est = 0.5 * exact_value(cut_circuit(circ, {2, 1}, proto, "ZZ")) +
                   0.25 * exact_value(cut_circuit(circ, {2, 1}, proto, "XI"));
  const Real ref = 0.5 * uncut_circuit_expectation(circ, "ZZ") +
                   0.25 * uncut_circuit_expectation(circ, "XI");
  EXPECT_NEAR(est, ref, 1e-9);
}

TEST(CircuitCutter, GadgetTermCountsMatchProtocol) {
  Circuit circ(2, 0);
  circ.h(0).cx(0, 1);
  EXPECT_EQ(cut_circuit(circ, {1, 0}, HaradaCut{}, "ZZ").size(), 3u);
  EXPECT_EQ(cut_circuit(circ, {1, 0}, PengCut{}, "ZZ").size(), 8u);
  EXPECT_EQ(cut_circuit(circ, {1, 0}, NmeCut{1.0}, "ZZ").size(), 2u);
  EXPECT_EQ(cut_circuit(circ, {1, 0}, TeleportCut{}, "ZZ").size(), 1u);
}

TEST(CircuitCutter, RejectsInvalidRequests) {
  Circuit circ(2, 0);
  circ.h(0).cx(0, 1);
  const HaradaCut proto;
  EXPECT_THROW(cut_circuit(circ, {1, 5}, proto, "ZZ"), Error);    // bad wire
  EXPECT_THROW(cut_circuit(circ, {9, 0}, proto, "ZZ"), Error);    // bad position
  EXPECT_THROW(cut_circuit(circ, {1, 0}, proto, "Z"), Error);     // wrong length
  EXPECT_THROW(cut_circuit(circ, {1, 0}, proto, "II"), Error);    // identity obs
  EXPECT_THROW(cut_circuit(circ, {1, 0}, proto, "ZQ"), Error);    // bad Pauli
  Circuit with_meas(2, 1);
  with_meas.h(0).measure(0, 0);
  EXPECT_THROW(cut_circuit(with_meas, {1, 0}, proto, "ZZ"), Error);
}

TEST(CircuitCutter, RejectsDeadCut) {
  // A cut on a wire that no later op touches and the observable ignores
  // would sample a κ²-inflated estimator of a state nobody measures.
  Circuit c(2, 0);
  c.h(0).cx(0, 1);
  const HaradaCut proto;
  EXPECT_THROW(cut_circuit(c, {2, 1}, proto, "ZI"), Error);
  // Measuring the cut wire keeps an end-of-circuit cut legal...
  EXPECT_NO_THROW(cut_circuit(c, {2, 1}, proto, "ZZ"));
  // ...and so does a later op on the wire, even with observable 'I' there.
  const Qpd qpd = cut_circuit(c, {1, 1}, proto, "ZI");
  EXPECT_NEAR(exact_value(qpd), uncut_circuit_expectation(c, "ZI"), 1e-9);

  // An initialize overwrites the wire, so a cut feeding only into it is just
  // as dead as one feeding nothing.
  Circuit reinit(2, 0);
  Vector zero(2);
  zero[0] = Cplx{1.0, 0.0};
  reinit.h(0).cz(0, 1).initialize({1}, zero, "reset1");
  EXPECT_THROW(cut_circuit(reinit, {2, 1}, proto, "ZI"), Error);
  EXPECT_NO_THROW(cut_circuit(reinit, {2, 1}, proto, "ZZ"));  // measured: live
}

TEST(CircuitCutter, RejectsOutOfRangeMultiCut) {
  Circuit c(3, 0);
  c.h(0).cx(0, 1).cx(1, 2);
  const HaradaCut proto;
  const NmeCut nme(0.7);
  // Out-of-range members of a multi-cut set fail with the same errors as the
  // single-cut path.
  const auto cut2 = [&](CutPoint a, CutPoint b, const std::string& obs) {
    return cut_circuit_sites(c, {CutSite::wire(a), CutSite::wire(b)}, {&proto, &nme}, obs);
  };
  EXPECT_THROW(cut2({1, 0}, {2, 7}, "ZZZ"), Error);
  EXPECT_THROW(cut2({9, 0}, {2, 1}, "ZZZ"), Error);
  // A dead member is rejected even when the other cut is live.
  EXPECT_THROW(cut2({2, 1}, {3, 0}, "IZZ"), Error);
}

TEST(CircuitCutter, KappaIndependentOfHostCircuit) {
  Rng rng(95);
  const NmeCut proto(0.45);
  Circuit small = random_unitary_circuit(2, 2, rng);
  Circuit large = random_unitary_circuit(4, 8, rng);
  EXPECT_NEAR(cut_circuit(small, {1, 0}, proto, "ZZ").kappa(), proto.kappa(), 1e-10);
  EXPECT_NEAR(cut_circuit(large, {4, 2}, proto, "ZZZZ").kappa(), proto.kappa(), 1e-10);
}

}  // namespace
}  // namespace qcut
