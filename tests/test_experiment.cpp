// The Fig. 6 harness (scaled down): error ordering by entanglement level,
// 1/√N decay, determinism across pool sizes.
#include <gtest/gtest.h>

#include <cmath>

#include "qcut/core/experiment.hpp"
#include "qcut/cut/distill_cut.hpp"
#include "pool_scope.hpp"

namespace qcut {
namespace {

Fig6Config small_config() {
  Fig6Config cfg;
  cfg.n_states = 60;
  cfg.shot_grid = {500, 2000, 4500};
  cfg.overlaps = {0.5, 0.8, 1.0};
  cfg.seed = 7;
  return cfg;
}

TEST(Fig6, RowLayout) {
  const auto rows = run_fig6(small_config());
  ASSERT_EQ(rows.size(), 9u);
  EXPECT_EQ(rows[0].f, 0.5);
  EXPECT_EQ(rows[0].shots, 500u);
  EXPECT_EQ(rows[8].f, 1.0);
  EXPECT_EQ(rows[8].shots, 4500u);
  EXPECT_NEAR(rows[0].kappa, 3.0, 1e-10);
  EXPECT_NEAR(rows[8].kappa, 1.0, 1e-10);
}

TEST(Fig6, ErrorDecreasesWithShots) {
  const auto rows = run_fig6(small_config());
  // Within each overlap block, error at 4500 shots < error at 500 shots.
  for (std::size_t block = 0; block < 3; ++block) {
    const Real early = rows[block * 3 + 0].mean_error;
    const Real late = rows[block * 3 + 2].mean_error;
    EXPECT_LT(late, early) << "f=" << rows[block * 3].f;
  }
}

TEST(Fig6, HigherEntanglementGivesLowerError) {
  // The paper's headline ordering, at the largest shot count.
  const auto rows = run_fig6(small_config());
  const Real err_f05 = rows[2].mean_error;   // f=0.5, 4500 shots
  const Real err_f08 = rows[5].mean_error;   // f=0.8
  const Real err_f10 = rows[8].mean_error;   // f=1.0
  EXPECT_GT(err_f05, err_f08);
  EXPECT_GT(err_f08, err_f10);
}

TEST(Fig6, ErrorScalesRoughlyAsKappaOverSqrtShots) {
  // ε ≈ c·κ/√N with c O(1): check the ratio between f=0.5 and f=1.0 at equal
  // shots is near κ ratio 3 (loose bounds — finite-sample noise).
  Fig6Config cfg = small_config();
  cfg.n_states = 150;
  cfg.shot_grid = {4000};
  cfg.overlaps = {0.5, 1.0};
  const auto rows = run_fig6(cfg);
  const Real ratio = rows[0].mean_error / rows[1].mean_error;
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 4.5);
}

TEST(Fig6, DeterministicAcrossPoolSizes) {
  const auto rows_on = [](std::size_t workers) {
    ThreadPool pool(workers);
    const qcut::testing::ScopedPool scope(pool);
    return run_fig6(small_config());
  };
  const auto rows1 = rows_on(1);
  const auto rows4 = rows_on(4);
  ASSERT_EQ(rows1.size(), rows4.size());
  for (std::size_t i = 0; i < rows1.size(); ++i) {
    EXPECT_DOUBLE_EQ(rows1[i].mean_error, rows4[i].mean_error) << "row " << i;
  }
}

TEST(Fig6, SemShrinksWithMoreStates) {
  Fig6Config small = small_config();
  small.shot_grid = {1000};
  small.overlaps = {0.7};
  Fig6Config big = small;
  big.n_states = 240;
  const Real sem_small = run_fig6(small)[0].sem;
  const Real sem_big = run_fig6(big)[0].sem;
  EXPECT_LT(sem_big, sem_small);
}

TEST(Fig6, CustomProtocolFactory) {
  // Swapping in the distillation-based cut must give statistically similar
  // errors (same κ). Use the default NME run as reference.
  Fig6Config cfg = small_config();
  cfg.overlaps = {0.8};
  cfg.shot_grid = {2000};
  const auto nme_rows = run_fig6(cfg);

  cfg.protocol_factory = [](Real f) -> std::shared_ptr<const WireCutProtocol> {
    return std::make_shared<DistillCut>(DistillCut::from_overlap(f));
  };
  const auto distill_rows = run_fig6(cfg);
  ASSERT_EQ(distill_rows.size(), 1u);
  EXPECT_NEAR(distill_rows[0].kappa, nme_rows[0].kappa, 1e-9);
  EXPECT_NEAR(distill_rows[0].mean_error, nme_rows[0].mean_error,
              6.0 * (distill_rows[0].sem + nme_rows[0].sem));
}

TEST(Fig6, FormatterProducesBlocks) {
  const auto rows = run_fig6(small_config());
  const std::string s = format_fig6(rows);
  EXPECT_NE(s.find("f(Phi_k) = 0.500"), std::string::npos);
  EXPECT_NE(s.find("f(Phi_k) = 1.000"), std::string::npos);
  EXPECT_NE(s.find("kappa"), std::string::npos);
}

TEST(Fig6, RejectsEmptyConfig) {
  Fig6Config cfg = small_config();
  cfg.overlaps.clear();
  EXPECT_THROW(run_fig6(cfg), Error);
  cfg = small_config();
  cfg.shot_grid.clear();
  EXPECT_THROW(run_fig6(cfg), Error);
  cfg = small_config();
  cfg.n_states = 0;
  EXPECT_THROW(run_fig6(cfg), Error);
}

}  // namespace
}  // namespace qcut
