// Multi-wire product cuts: κ multiplies, estimates stay exact in expectation.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "qcut/common/stats.hpp"
#include "qcut/cut/distill_cut.hpp"
#include "qcut/cut/harada_cut.hpp"
#include "qcut/cut/multiwire.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/cut/peng_cut.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/qpd/estimator.hpp"

namespace qcut {
namespace {

TEST(MultiWire, KappaMultiplies) {
  const HaradaCut h;
  const NmeCut n(0.5);
  EXPECT_NEAR(product_kappa({&h, &h}), 9.0, 1e-12);
  EXPECT_NEAR(product_kappa({&h, &n}), 3.0 * n.kappa(), 1e-12);
  EXPECT_NEAR(product_kappa({&n, &n, &n}), std::pow(n.kappa(), 3.0), 1e-12);
}

TEST(MultiWire, JointQpdKappaMatchesProduct) {
  Rng rng(1);
  const NmeCut n(0.4);
  const HaradaCut h;
  const std::vector<const WireCutProtocol*> protos = {&n, &h};
  const std::vector<CutInput> inputs = {{haar_unitary(2, rng), 'Z'},
                                        {haar_unitary(2, rng), 'Z'}};
  const Qpd joint = product_qpd(protos, inputs);
  EXPECT_EQ(joint.size(), n.build_qpd(inputs[0]).size() * h.build_qpd(inputs[1]).size());
  EXPECT_NEAR(joint.kappa(), product_kappa(protos), 1e-10);
  EXPECT_NEAR(joint.coefficient_sum(), 1.0, 1e-10);
}

TEST(MultiWire, ExactValueIsProductOfExpectations) {
  // ⟨Z ⊗ Z⟩ of a product input equals the product of single-wire ⟨Z⟩.
  Rng rng(2);
  for (int trial = 0; trial < 4; ++trial) {
    const CutInput in_a{haar_unitary(2, rng), 'Z'};
    const CutInput in_b{haar_unitary(2, rng), 'Z'};
    const NmeCut a(0.7);
    const HaradaCut b;
    const Qpd joint = product_qpd({&a, &b}, {in_a, in_b});
    const Real expected = uncut_expectation(in_a) * uncut_expectation(in_b);
    EXPECT_NEAR(exact_value(joint), expected, 1e-9) << "trial " << trial;
  }
}

TEST(MultiWire, ThreeWireExactValue) {
  Rng rng(3);
  const CutInput in_a{haar_unitary(2, rng), 'Z'};
  const CutInput in_b{haar_unitary(2, rng), 'X'};
  const CutInput in_c{haar_unitary(2, rng), 'Y'};
  const NmeCut p1(1.0), p2(0.5), p3(0.0);
  const Qpd joint = product_qpd({&p1, &p2, &p3}, {in_a, in_b, in_c});
  const Real expected =
      uncut_expectation(in_a) * uncut_expectation(in_b) * uncut_expectation(in_c);
  EXPECT_NEAR(exact_value(joint), expected, 1e-9);
}

TEST(MultiWire, EstimatorConvergesOnJointObservable) {
  Rng rng(4);
  const CutInput in_a{haar_unitary(2, rng), 'Z'};
  const CutInput in_b{haar_unitary(2, rng), 'Z'};
  const NmeCut a(0.8), b(0.8);
  const Qpd joint = product_qpd({&a, &b}, {in_a, in_b});
  const BatchedBranchBackend backend(joint);
  const Real target = exact_value(joint);

  RunningStats stats;
  for (int t = 0; t < 200; ++t) {
    const std::uint64_t seed = Rng(55, static_cast<std::uint64_t>(t))();
    stats.add(run_plan(joint, ShotPlan::sampled(joint, 400, seed), backend, seed).estimate);
  }
  EXPECT_NEAR(stats.mean(), target, 5.0 * stats.sem() + 1e-6);
}

TEST(MultiWire, EntangledPairsAddAcrossWires) {
  const NmeCut a(0.5), b(0.5);
  const Qpd joint = product_qpd({&a, &b}, {CutInput{}, CutInput{}});
  int max_pairs = 0;
  for (const auto& t : joint.terms()) {
    max_pairs = std::max(max_pairs, t.entangled_pairs);
  }
  EXPECT_EQ(max_pairs, 2);  // both wires teleporting simultaneously
}

TEST(MultiWire, HigherEntanglementTamesExponentialCost) {
  // The paper's motivation: at f = 1 the product overhead stays 1 while at
  // f = 1/2 it is 3^n.
  const NmeCut free_res(1.0);
  const NmeCut none(0.0);
  EXPECT_NEAR(product_kappa({&free_res, &free_res, &free_res, &free_res}), 1.0, 1e-12);
  EXPECT_NEAR(product_kappa({&none, &none, &none, &none}), 81.0, 1e-9);
}

TEST(MultiWire, ProductKappaMatchesJointCoefficientsForRandomMixes) {
  // Property: for any protocol mix, κ recomputed from the joint QPD's
  // coefficients (Σ|Π c|) equals the closed-form product Π κ_i.
  Rng rng(71);
  const HaradaCut harada;
  const PengCut peng;
  const TeleportCut teleport;
  for (int trial = 0; trial < 8; ++trial) {
    const int n_wires = 2 + static_cast<int>(rng.uniform_u64(3));  // 2..4
    std::vector<std::unique_ptr<WireCutProtocol>> owned;
    std::vector<const WireCutProtocol*> protos;
    std::vector<CutInput> inputs;
    for (int w = 0; w < n_wires; ++w) {
      switch (rng.uniform_u64(4)) {
        case 0:
          protos.push_back(&harada);
          break;
        case 1:
          protos.push_back(&peng);
          break;
        case 2:
          protos.push_back(&teleport);
          break;
        default:
          owned.push_back(std::make_unique<NmeCut>(rng.uniform()));
          protos.push_back(owned.back().get());
          break;
      }
      const char obs = "XYZ"[rng.uniform_u64(3)];
      inputs.push_back(CutInput{haar_unitary(2, rng), obs});
    }
    const Qpd joint = product_qpd(protos, inputs);
    EXPECT_NEAR(joint.kappa(), product_kappa(protos), 1e-9)
        << "trial " << trial << " wires " << n_wires;
    EXPECT_NEAR(joint.coefficient_sum(), 1.0, 1e-9) << "trial " << trial;
  }
}

TEST(MultiWire, RejectsBadArguments) {
  const HaradaCut h;
  EXPECT_THROW(product_qpd({}, {}), Error);
  EXPECT_THROW(product_qpd({&h}, {CutInput{}, CutInput{}}), Error);
  EXPECT_THROW(product_qpd({nullptr}, {CutInput{}}), Error);
}

}  // namespace
}  // namespace qcut
