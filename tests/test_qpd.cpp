// QPD bookkeeping and shot allocation.
#include <gtest/gtest.h>

#include "qcut/qpd/qpd.hpp"
#include "qcut/qpd/shot_alloc.hpp"
#include "qcut/sim/gates.hpp"

namespace qcut {
namespace {

QpdTerm dummy_term(Real coeff, int pairs = 0) {
  QpdTerm t;
  t.coefficient = coeff;
  t.circuit = Circuit(1, 1);
  t.circuit.h(0).measure(0, 0);
  t.estimate_cbits = {0};
  t.entangled_pairs = pairs;
  return t;
}

TEST(Qpd, KappaAndProbabilities) {
  Qpd qpd;
  qpd.add(dummy_term(1.5)).add(dummy_term(-0.5)).add(dummy_term(1.0));
  EXPECT_NEAR(qpd.kappa(), 3.0, 1e-12);
  EXPECT_NEAR(qpd.coefficient_sum(), 2.0, 1e-12);
  const auto p = qpd.probabilities();
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[1], 1.0 / 6.0, 1e-12);
  const auto s = qpd.signs();
  EXPECT_EQ(s[0], 1.0);
  EXPECT_EQ(s[1], -1.0);
}

TEST(Qpd, ExpectedPairsPerSample) {
  Qpd qpd;
  qpd.add(dummy_term(1.0, 1)).add(dummy_term(1.0, 0));
  EXPECT_NEAR(qpd.expected_pairs_per_sample(), 0.5, 1e-12);
}

TEST(Qpd, RejectsInvalidTerms) {
  Qpd qpd;
  EXPECT_THROW(qpd.add(dummy_term(0.0)), Error);
  QpdTerm bad = dummy_term(1.0);
  bad.estimate_cbits = {5};
  EXPECT_THROW(qpd.add(std::move(bad)), Error);
  QpdTerm none = dummy_term(1.0);
  none.estimate_cbits.clear();
  EXPECT_THROW(qpd.add(std::move(none)), Error);
}

TEST(ShotAlloc, SumsToTotal) {
  const std::vector<Real> w = {0.7, 0.2, 0.1};
  for (AllocRule rule : {AllocRule::kProportional, AllocRule::kLargestRemainder}) {
    for (std::uint64_t total : {0ULL, 1ULL, 7ULL, 100ULL, 12345ULL}) {
      const auto alloc = allocate_shots(w, total, rule);
      std::uint64_t sum = 0;
      for (auto a : alloc) {
        sum += a;
      }
      EXPECT_EQ(sum, total);
    }
  }
}

TEST(ShotAlloc, ProportionalToWeights) {
  const std::vector<Real> w = {3.0, 1.0};
  const auto alloc = allocate_shots(w, 4000, AllocRule::kProportional);
  EXPECT_EQ(alloc[0], 3000u);
  EXPECT_EQ(alloc[1], 1000u);
}

TEST(ShotAlloc, PaperNmeExample) {
  // Theorem-2 coefficients at k=0: |c| = {1, 1, 1} → equal thirds.
  const std::vector<Real> w = {1.0, 1.0, 1.0};
  const auto alloc = allocate_shots(w, 3000, AllocRule::kProportional);
  EXPECT_EQ(alloc[0], 1000u);
  EXPECT_EQ(alloc[1], 1000u);
  EXPECT_EQ(alloc[2], 1000u);
}

TEST(ShotAlloc, LargestRemainderGivesLeftoversToBiggestFractions) {
  const std::vector<Real> w = {0.5, 0.26, 0.24};
  const auto alloc = allocate_shots(w, 10, AllocRule::kLargestRemainder);
  // Exact: 5.0, 2.6, 2.4 → floors 5,2,2 rem 1 → fraction order: 0.6 > 0.4.
  EXPECT_EQ(alloc[0], 5u);
  EXPECT_EQ(alloc[1], 3u);
  EXPECT_EQ(alloc[2], 2u);
}

TEST(ShotAlloc, NeymanWeightsBySigma) {
  const std::vector<Real> w = {1.0, 1.0};
  const std::vector<Real> sigmas = {3.0, 1.0};
  const auto alloc = allocate_shots(w, 4000, AllocRule::kNeyman, &sigmas);
  EXPECT_EQ(alloc[0], 3000u);
  EXPECT_EQ(alloc[1], 1000u);
}

TEST(ShotAlloc, NeymanFallsBackWhenAllSigmasZero) {
  const std::vector<Real> w = {3.0, 1.0};
  const std::vector<Real> sigmas = {0.0, 0.0};
  const auto alloc = allocate_shots(w, 400, AllocRule::kNeyman, &sigmas);
  EXPECT_EQ(alloc[0], 300u);
  EXPECT_EQ(alloc[1], 100u);
}

TEST(ShotAlloc, RejectsInvalidInput) {
  EXPECT_THROW(allocate_shots({}, 10, AllocRule::kProportional), Error);
  EXPECT_THROW(allocate_shots({-1.0}, 10, AllocRule::kProportional), Error);
  EXPECT_THROW(allocate_shots({0.0, 0.0}, 10, AllocRule::kProportional), Error);
  EXPECT_THROW(allocate_shots({1.0}, 10, AllocRule::kNeyman, nullptr), Error);
}

}  // namespace
}  // namespace qcut
