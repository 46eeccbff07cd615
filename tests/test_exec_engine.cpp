// The execution-engine layer: shot planning, branch caching, backend
// equivalence in law, and bit-identical parallel execution.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "exact_oracles.hpp"
#include "pool_scope.hpp"
#include "qcut/common/stats.hpp"
#include "qcut/core/cut_executor.hpp"
#include "qcut/cut/fragment.hpp"
#include "qcut/cut/harada_cut.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/plan/planned_executor.hpp"
#include "qcut/qpd/estimator.hpp"
#include "test_helpers.hpp"

namespace qcut {
namespace {

CutInput fixed_input() {
  CutInput input;
  // W = Ry(1.1): ⟨Z⟩ = cos(1.1), deterministic for reproducible statistics.
  const Real theta = 1.1;
  const Real c = std::cos(theta / 2.0), s = std::sin(theta / 2.0);
  input.prep = Matrix{{Cplx{c, 0}, Cplx{-s, 0}}, {Cplx{s, 0}, Cplx{c, 0}}};
  input.observable = 'Z';
  return input;
}

TEST(ShotPlanTest, AllocationSumsToBudgetAndSplitsIntoBatches) {
  const Qpd qpd = NmeCut{0.5}.build_qpd(fixed_input());
  const ShotPlan plan = ShotPlan::allocated(qpd, 10000, AllocRule::kProportional,
                                            /*sigmas=*/nullptr, /*max_batch_shots=*/256);
  EXPECT_EQ(plan.total_shots, 10000u);
  ASSERT_EQ(plan.shots_per_term.size(), qpd.size());

  std::uint64_t from_terms = 0;
  for (auto n : plan.shots_per_term) {
    from_terms += n;
  }
  EXPECT_EQ(from_terms, 10000u);

  std::vector<std::uint64_t> from_batches(qpd.size(), 0);
  std::set<std::uint64_t> streams;
  for (const auto& b : plan.batches) {
    EXPECT_GE(b.shots, 1u);
    EXPECT_LE(b.shots, 256u);
    from_batches[b.term] += b.shots;
    streams.insert(b.stream);
  }
  for (std::size_t i = 0; i < qpd.size(); ++i) {
    EXPECT_EQ(from_batches[i], plan.shots_per_term[i]) << "term " << i;
  }
  // Substream ids must be unique — that is what makes parallel draws
  // independent and scheduling-invariant.
  EXPECT_EQ(streams.size(), plan.batches.size());
}

TEST(ShotPlanTest, SampledMatchesMultinomialLaw) {
  const Qpd qpd = NmeCut{0.6}.build_qpd(fixed_input());
  const ShotPlan plan = ShotPlan::sampled(qpd, 5000, /*seed=*/3);
  EXPECT_EQ(plan.kind, PlanKind::kSampled);
  EXPECT_EQ(plan.total_shots, 5000u);
  // Counts should roughly follow p_i = |c_i|/κ.
  const auto probs = qpd.probabilities();
  for (std::size_t i = 0; i < qpd.size(); ++i) {
    const Real expected = probs[i] * 5000.0;
    const Real sd = std::sqrt(5000.0 * probs[i] * (1.0 - probs[i])) + 1.0;
    EXPECT_NEAR(static_cast<Real>(plan.shots_per_term[i]), expected, 6.0 * sd) << i;
  }
}

TEST(BranchCacheTest, LazyAndMatchesExactEnumeration) {
  // Nothing is computed until prepare(); then every term at once, and
  // repeated calls compute nothing more. The library's exact path (fragment
  // variants) agrees with the spliced oracle.
  const Qpd qpd = NmeCut{0.5}.build_qpd(fixed_input());
  const BranchCache cache(qpd);
  EXPECT_EQ(cache.computed_terms(), 0u);
  cache.prepare();
  EXPECT_EQ(cache.computed_terms(), qpd.size());
  const Real p0 = cache.prob_one(0);
  cache.prepare();
  EXPECT_EQ(cache.prob_one(0), p0);  // served from cache, no recompute
  EXPECT_EQ(cache.computed_terms(), qpd.size());

  const auto all = cache.all_prob_one();
  ASSERT_EQ(all.size(), qpd.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_NEAR(all[i], testing::term_prob_one(qpd.terms()[i]), 1e-12) << "term " << i;
  }
}

TEST(BranchCacheTest, PreseededCacheNeverEnumerates) {
  const Qpd qpd = HaradaCut{}.build_qpd(fixed_input());
  const auto probs = exact_term_prob_one(qpd);
  const BranchCache cache(qpd, probs);
  EXPECT_EQ(cache.computed_terms(), qpd.size());
  for (std::size_t i = 0; i < qpd.size(); ++i) {
    EXPECT_EQ(cache.prob_one(i), probs[i]);
  }
}

TEST(EngineTest, BackendsAgreeInDistribution) {
  // SerialShotBackend vs BatchedBranchBackend on fixed seeds: same mean and
  // same variance (they realize the same estimator law).
  const Qpd qpd = NmeCut{0.5}.build_qpd(fixed_input());
  const Real target = std::cos(1.1);
  const std::uint64_t shots = 300;
  const int trials = 200;

  const ShotPlan plan = ShotPlan::allocated(qpd, shots, AllocRule::kProportional);
  const SerialShotBackend serial(qpd);
  const BatchedBranchBackend batched(qpd);

  RunningStats serial_stats, batched_stats;
  for (int t = 0; t < trials; ++t) {
    const auto seed = static_cast<std::uint64_t>(t);
    serial_stats.add(run_plan(qpd, plan, serial, seed).estimate);
    batched_stats.add(run_plan(qpd, plan, batched, 1000000 + seed).estimate);
  }
  EXPECT_NEAR(serial_stats.mean(), target, 5.0 * serial_stats.sem() + 1e-6);
  EXPECT_NEAR(batched_stats.mean(), target, 5.0 * batched_stats.sem() + 1e-6);
  EXPECT_NEAR(serial_stats.mean(), batched_stats.mean(),
              4.0 * (serial_stats.sem() + batched_stats.sem()) + 1e-6);
  EXPECT_NEAR(serial_stats.variance(), batched_stats.variance(),
              0.35 * serial_stats.variance() + 1e-6);
}

TEST(EngineTest, SampledPathIsUnbiasedOnBothBackends) {
  const Qpd qpd = HaradaCut{}.build_qpd(fixed_input());
  const Real target = std::cos(1.1);
  for (BackendKind kind : {BackendKind::kSerialShot, BackendKind::kBatchedBranch}) {
    const auto backend = make_backend(kind, qpd);
    RunningStats stats;
    const int trials = kind == BackendKind::kSerialShot ? 150 : 400;
    for (int t = 0; t < trials; ++t) {
      // The multinomial term split and the batches draw from disjoint
      // substreams of one seed.
      const auto seed = static_cast<std::uint64_t>(17 + t);
      const ShotPlan plan = ShotPlan::sampled(qpd, 200, seed);
      stats.add(run_plan(qpd, plan, *backend, seed).estimate);
    }
    EXPECT_NEAR(stats.mean(), target, 5.0 * stats.sem() + 1e-6) << backend->name();
  }
}

TEST(EngineTest, BitIdenticalAcrossPoolSizes) {
  // The tentpole determinism guarantee: same seed + same plan → the same
  // bits, for pool sizes 1, 2, and 8, on both backends.
  const Qpd qpd = NmeCut{0.6}.build_qpd(fixed_input());
  ThreadPool p1(1), p2(2), p8(8);

  for (BackendKind kind : {BackendKind::kBatchedBranch, BackendKind::kSerialShot}) {
    const std::uint64_t shots = kind == BackendKind::kSerialShot ? 600 : 100000;
    const ShotPlan plan = ShotPlan::allocated(qpd, shots, AllocRule::kProportional,
                                              /*sigmas=*/nullptr, /*max_batch_shots=*/64);
    ASSERT_GE(plan.batches.size(), 8u);  // enough work units to actually spread
    const auto backend = make_backend(kind, qpd);

    std::vector<Real> estimates;
    for (ThreadPool* pool : {&p1, &p2, &p8}) {
      const qcut::testing::ScopedPool scope(*pool);
      estimates.push_back(run_plan(qpd, plan, *backend, /*seed=*/20240320).estimate);
    }
    EXPECT_EQ(estimates[0], estimates[1]) << backend->name();
    EXPECT_EQ(estimates[0], estimates[2]) << backend->name();
  }
}

TEST(EngineTest, BatchSplitDoesNotChangeTheLaw) {
  // Different max_batch_shots give different streams but the same statistics.
  const Qpd qpd = NmeCut{0.5}.build_qpd(fixed_input());
  const Real target = std::cos(1.1);
  const BatchedBranchBackend backend(qpd);
  for (std::uint64_t split :
       {std::uint64_t{64}, std::uint64_t{1024}, ShotPlan::kDefaultMaxBatchShots}) {
    const ShotPlan plan =
        ShotPlan::allocated(qpd, 2000, AllocRule::kProportional, /*sigmas=*/nullptr, split);
    RunningStats stats;
    for (int t = 0; t < 300; ++t) {
      stats.add(run_plan(qpd, plan, backend, static_cast<std::uint64_t>(t)).estimate);
    }
    EXPECT_NEAR(stats.mean(), target, 5.0 * stats.sem() + 1e-6) << "split=" << split;
  }
}

TEST(EngineTest, CombineCountsImplementsBothLaws) {
  const Qpd qpd = NmeCut{0.0}.build_qpd(fixed_input());  // |c| = {1, 1, 1}
  ShotPlan plan = ShotPlan::from_allocation(PlanKind::kAllocated, qpd, {100, 100, 100});
  const auto res = combine_counts(qpd, plan, {0, 50, 100});
  // means: +1, 0, −1 → Σ c_i·mean_i
  const auto& c = qpd.terms();
  EXPECT_NEAR(res.estimate, c[0].coefficient - c[2].coefficient, 1e-12);
  EXPECT_EQ(res.shots_used, 300u);

  plan.kind = PlanKind::kSampled;
  const auto sampled = combine_counts(qpd, plan, {0, 50, 100});
  Real expected = 0.0;
  const auto signs = qpd.signs();
  expected += qpd.kappa() * signs[0] * 100.0;  // all +1
  expected += qpd.kappa() * signs[1] * 0.0;
  expected += qpd.kappa() * signs[2] * -100.0;  // all −1
  EXPECT_NEAR(sampled.estimate, expected / 300.0, 1e-12);
}

TEST(EngineTest, CutExecutorDefaultsToBatchedBackend) {
  CutRunConfig cfg;
  // The retired `fast` bool folded into `backend`: the default is the
  // batched-branch engine, and the old fast=false reference path is spelled
  // backend = kSerialShot explicitly.
  EXPECT_EQ(cfg.backend, BackendKind::kBatchedBranch);

  cfg = CutRunConfig{};
  cfg.shots = 20000;
  cfg.seed = 5;
  CutExecutor exec(make_wire_protocol({ProtocolId::kNme, 0.7}));
  const auto res = exec.run(fixed_input(), cfg);
  EXPECT_NEAR(res.estimate, res.exact, 0.1);
  EXPECT_EQ(res.details.shots_used, 20000u);
}

TEST(EngineTest, NestedRunFromPoolWorkerFallsBackInline) {
  // Calling run_plan from a task of its own pool must not deadlock (the
  // pool's parallel_for detects the re-entry and runs the batches inline)
  // and must return the same bits as a top-level run.
  const Qpd qpd = NmeCut{0.6}.build_qpd(fixed_input());
  ThreadPool pool(2);
  const qcut::testing::ScopedPool scope(pool);
  const ShotPlan plan = ShotPlan::allocated(qpd, 10000, AllocRule::kProportional,
                                            /*sigmas=*/nullptr, /*max_batch_shots=*/128);
  const BatchedBranchBackend backend(qpd);

  const Real top_level = run_plan(qpd, plan, backend, /*seed=*/7).estimate;
  std::vector<Real> nested(4, 0.0);
  pool.parallel_for(0, nested.size(), [&](std::size_t i) {
    nested[i] = run_plan(qpd, plan, backend, /*seed=*/7).estimate;
  });
  for (Real e : nested) {
    EXPECT_EQ(e, top_level);
  }
}

TEST(EngineTest, TermsIntroducingVariantsEvaluateInOneFanOut) {
  // A cold run computes every term's P(−1) in one fan-out over the terms
  // that introduce a fragment variant (the three terms of GHZ-20's one wire
  // cut share none, and their work passes fanout_pays), at most one task
  // per worker; a warm run of the same backend runs no pool task.
  // Scheduling never changes the bits or the cache accounting.
  const Circuit circ = testing::ghz_line(20);
  PlannerConfig pcfg;
  pcfg.max_fragment_width = 11;
  pcfg.pair_budget = 0;
  const Qpd qpd =
      PlannedExecutor(circ, CutPlanner(circ, pcfg).plan()).build_qpd(Observable::z_all(20));
  ASSERT_EQ(qpd.size(), 3u);
  ASSERT_EQ(FragmentVariants(qpd).introducing_terms().size(), 3u);
  ASSERT_TRUE(fanout_pays(FragmentVariants(qpd).work())) << FragmentVariants(qpd).work();
  const ShotPlan plan = ShotPlan::allocated(qpd, 20000, AllocRule::kProportional,
                                            /*sigmas=*/nullptr, /*max_batch_shots=*/128);

  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const auto run_on = [&](std::size_t workers) {
    ThreadPool pool(workers);
    const qcut::testing::ScopedPool scope(pool);
    const BatchedBranchBackend backend(qpd);
    obs::MetricsSnapshot before = obs::metrics_snapshot();
    const Real estimate = run_plan(qpd, plan, backend, /*seed=*/4242).estimate;
    obs::MetricsSnapshot delta = obs::metrics_delta(before, obs::metrics_snapshot());
    EXPECT_EQ(delta[obs::Counter::kBranchCacheMiss], qpd.size()) << "pool " << workers;
    EXPECT_EQ(delta[obs::Counter::kBranchCacheHit], plan.batches.size()) << "pool " << workers;
    EXPECT_EQ(delta[obs::Counter::kPoolTasks], workers == 1 ? 0u : std::min<std::size_t>(3, workers))
        << "pool " << workers;
    before = obs::metrics_snapshot();
    EXPECT_EQ(run_plan(qpd, plan, backend, /*seed=*/4242).estimate, estimate);
    delta = obs::metrics_delta(before, obs::metrics_snapshot());
    EXPECT_EQ(delta[obs::Counter::kBranchCacheMiss], 0u) << "pool " << workers;
    EXPECT_EQ(delta[obs::Counter::kPoolTasks], 0u) << "pool " << workers;
    return estimate;
  };

  const Real on_four = run_on(4);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(run_on(workers), on_four) << "pool " << workers;
  }
  obs::set_metrics_enabled(metrics_were_enabled);
}

/// Records the term, stream and thread of every batch, in arrival order.
/// Each batch then sleeps briefly, so that a pool which handed out batches
/// would spread them over its workers.
class RecordingBackend final : public ExecutionBackend {
 public:
  struct Arrival {
    std::size_t term;
    std::uint64_t stream;
    std::thread::id thread;
  };

  explicit RecordingBackend(const Qpd& qpd) : inner_(qpd) {}

  std::string name() const override { return "recording"; }
  void prepare() const override { inner_.prepare(); }
  std::uint64_t run_batch(const TermBatch& batch, Rng& rng) const override {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      arrivals_.push_back({batch.term, batch.stream, std::this_thread::get_id()});
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    return inner_.run_batch(batch, rng);
  }

  std::vector<Arrival> arrivals() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return arrivals_;
  }

 private:
  BatchedBranchBackend inner_;
  mutable std::mutex mu_;
  mutable std::vector<Arrival> arrivals_;
};

TEST(EngineTest, EveryBatchRunsInPlanOrderOnTheCallingThread) {
  // Draws never fan out: whatever the pool, the batches arrive in plan
  // order, all on the thread that called run_plan, with the bits of pool 1.
  const Qpd qpd = NmeCut{0.6}.build_qpd(fixed_input());
  const ShotPlan plan = ShotPlan::allocated(qpd, 20000, AllocRule::kProportional,
                                            /*sigmas=*/nullptr, /*max_batch_shots=*/128);
  const auto run_on = [&](std::size_t workers, RecordingBackend& backend) {
    ThreadPool pool(workers);
    const qcut::testing::ScopedPool scope(pool);
    return run_plan(qpd, plan, backend, /*seed=*/31).estimate;
  };
  RecordingBackend serial(qpd);
  const Real on_one = run_on(1, serial);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    RecordingBackend backend(qpd);
    EXPECT_EQ(run_on(workers, backend), on_one) << "pool " << workers;
    const std::vector<RecordingBackend::Arrival> arrivals = backend.arrivals();
    ASSERT_EQ(arrivals.size(), plan.batches.size()) << "pool " << workers;
    for (std::size_t b = 0; b < arrivals.size(); ++b) {
      EXPECT_EQ(arrivals[b].term, plan.batches[b].term) << "pool " << workers << ", batch " << b;
      EXPECT_EQ(arrivals[b].stream, plan.batches[b].stream) << "pool " << workers;
      EXPECT_EQ(arrivals[b].thread, std::this_thread::get_id()) << "pool " << workers;
    }
  }
}

TEST(EngineTest, CutExecutorRunIsPoolSizeInvariant) {
  ThreadPool p1(1), p8(8);
  CutRunConfig cfg;
  cfg.shots = 50000;
  cfg.seed = 99;
  CutExecutor exec(make_wire_protocol({ProtocolId::kNme, 0.6}));
  const auto run_on = [&](ThreadPool& pool) {
    const qcut::testing::ScopedPool scope(pool);
    return exec.run(fixed_input(), cfg);
  };
  const auto r1 = run_on(p1);
  const auto r8 = run_on(p8);
  EXPECT_EQ(r1.estimate, r8.estimate);
  EXPECT_EQ(r1.report.pool_threads, 1u);
  EXPECT_EQ(r8.report.pool_threads, 8u);
}

}  // namespace
}  // namespace qcut
