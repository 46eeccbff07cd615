// Observability: metrics-registry semantics, exact counter accounting on a
// pinned fragment workload, trace-file well-formedness + span nesting, and
// the bit-identity of estimates with metrics/tracing on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "qcut/common/fault.hpp"
#include "qcut/common/threadpool.hpp"
#include "qcut/core/cut_executor.hpp"
#include "qcut/cut/circuit_cutter.hpp"
#include "qcut/cut/fragment.hpp"
#include "qcut/cut/harada_cut.hpp"
#include "qcut/exec/backend.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/obs/run_report.hpp"
#include "qcut/obs/trace.hpp"
#include "qcut/plan/planned_executor.hpp"
#include "qcut/sim/executor.hpp"
#include "qcut/sim/fusion.hpp"
#include "qcut/sim/gates.hpp"
#include "qcut/sim/qasm_import.hpp"
#include "qcut/sim/statevector.hpp"
#include "qcut/svc/api.hpp"
#include "qcut/svc/cache.hpp"
#include "test_helpers.hpp"

namespace qcut {
namespace {

using obs::Counter;
using qcut::testing::BenchShape;
using qcut::testing::ghz_line;

std::string all_z(int n) { return std::string(static_cast<std::size_t>(n), 'Z'); }

/// Restores the registry to enabled + zeroed around each test, so tests are
/// order-independent even though the registry is process-global.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::metrics_reset();
  }
  void TearDown() override {
    obs::set_metrics_enabled(true);
    obs::stop_tracing();
  }
};

TEST_F(ObsTest, CountersAccumulateAndSnapshotDeltasSubtract) {
  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  obs::count(Counter::kBranchCacheHit);
  obs::count(Counter::kBranchCacheHit, 2);
  obs::count(Counter::kShotsSampled, 100);
  const obs::MetricsSnapshot delta = obs::metrics_delta(before, obs::metrics_snapshot());
  EXPECT_EQ(delta[Counter::kBranchCacheHit], 3u);
  EXPECT_EQ(delta[Counter::kShotsSampled], 100u);
  EXPECT_EQ(delta[Counter::kBranchCacheMiss], 0u);
}

TEST_F(ObsTest, DisabledRegistryCountsNothing) {
  obs::set_metrics_enabled(false);
  obs::count(Counter::kBranchCacheHit, 7);
  obs::set_metrics_enabled(true);
  EXPECT_EQ(obs::metrics_snapshot()[Counter::kBranchCacheHit], 0u);
}

TEST_F(ObsTest, CounterNamesAreStableSnakeCaseJsonKeys) {
  EXPECT_STREQ(obs::counter_name(Counter::kBranchCacheHit), "branch_cache_hit");
  EXPECT_STREQ(obs::counter_name(Counter::kDispatchSparsePhase), "dispatch_sparse_phase");
  EXPECT_STREQ(obs::counter_name(Counter::kPlanNodesExplored), "plan_nodes_explored");
  const std::string json = obs::metrics_json(obs::metrics_snapshot());
  for (int i = 0; i < obs::kCounterCount; ++i) {
    EXPECT_NE(json.find(std::string("\"") + obs::counter_name(static_cast<Counter>(i)) +
                        "\""),
              std::string::npos)
        << "counter " << i << " missing from metrics_json";
  }
}

TEST_F(ObsTest, KernelDispatchCountsAreExactPerStructure) {
  // One circuit exercising every dispatch path; the builder classifies each
  // gate once, Statevector::apply counts the path it takes.
  Rng rng(5);
  Circuit c(3, 0);
  c.h(0);                                                   // generic 1q -> dense_1q
  c.h(1);                                                   // dense_1q
  c.rz(0, 0.7);                                             // diagonal (no unit entry)
  c.gate(gates::controlled(gates::phase(0.3)), {0, 1}, "CU1");  // sparse phase
  c.cx(0, 1);                                               // permutation
  c.swap_gate(1, 2);                                        // permutation
  c.gate(haar_unitary(4, rng), {0, 1}, "U2");               // dense_2q
  c.gate(haar_unitary(8, rng), {0, 1, 2}, "U3");            // generic k=3

  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  Statevector sv(3);
  for (const Operation& op : c.ops()) {
    sv.apply(op.matrix(), op.qubits, op.gclass());
  }
  const obs::MetricsSnapshot d = obs::metrics_delta(before, obs::metrics_snapshot());
  EXPECT_EQ(d[Counter::kDispatchDense1q], 2u);
  EXPECT_EQ(d[Counter::kDispatchDiagonal], 1u);
  EXPECT_EQ(d[Counter::kDispatchSparsePhase], 1u);
  EXPECT_EQ(d[Counter::kDispatchPermutation], 2u);
  EXPECT_EQ(d[Counter::kDispatchDense2q], 1u);
  EXPECT_EQ(d[Counter::kDispatchGeneric], 1u);
}

TEST_F(ObsTest, BranchCacheCountsOneMissPerTermThenHits) {
  const Circuit circ = ghz_line(3);
  const HaradaCut proto;
  const Qpd qpd = cut_circuit(circ, CutPoint{2, 1}, proto, "ZZZ");
  const BatchedBranchBackend backend(qpd);
  const BranchCache& cache = backend.cache();

  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  cache.prob_one(0);     // computes every term: one miss each
  cache.prob_one(0);     // a hit per draw served
  cache.all_prob_one();  // neither
  const obs::MetricsSnapshot d = obs::metrics_delta(before, obs::metrics_snapshot());
  EXPECT_EQ(d[Counter::kBranchCacheMiss], qpd.size());
  EXPECT_EQ(d[Counter::kBranchCacheHit], 2u);
}

TEST_F(ObsTest, GadgetVariantsShareOneSkeleton) {
  const Circuit circ = ghz_line(4);
  const HaradaCut proto;
  const Qpd qpd = cut_circuit(circ, CutPoint{2, 1}, proto, "ZZZZ");

  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  const FragmentVariants variants(qpd);
  const obs::MetricsSnapshot d = obs::metrics_delta(before, obs::metrics_snapshot());
  // All gadget variants of one cut split alike, so the layout's structure
  // ids give every term the first term's skeleton.
  EXPECT_EQ(d[Counter::kSkeletonCacheMiss], 1u);
  EXPECT_EQ(d[Counter::kSkeletonCacheHit], qpd.size() - 1);
}

TEST_F(ObsTest, FusionRegistryMirrorsReturnedStatsAndCountsStatlessCalls) {
  Circuit c(2, 0);
  c.rz(0, 0.3);
  c.ry(0, 0.4);
  c.rz(0, 0.5);
  c.cx(0, 1);

  obs::MetricsSnapshot before = obs::metrics_snapshot();
  FusionStats st;
  fuse_circuit(c, &st);
  obs::MetricsSnapshot d = obs::metrics_delta(before, obs::metrics_snapshot());
  EXPECT_EQ(d[Counter::kFusionOpsBefore], st.ops_before);
  EXPECT_EQ(d[Counter::kFusionOpsAfter], st.ops_after);
  EXPECT_EQ(d[Counter::kFusionFused1q], st.fused_1q);
  EXPECT_EQ(d[Counter::kFusionMergedMonomial], st.merged_monomial);
  EXPECT_EQ(d[Counter::kFusionDroppedIdentity], st.dropped_identity);
  EXPECT_GT(st.fused_1q, 0u);

  // The fragment path passes no stats sink; the registry still sees the ops
  // (satellite: FusionStats surfaced end-to-end on both paths).
  before = obs::metrics_snapshot();
  fuse_circuit(c, nullptr);
  d = obs::metrics_delta(before, obs::metrics_snapshot());
  EXPECT_EQ(d[Counter::kFusionOpsBefore], st.ops_before);
  EXPECT_EQ(d[Counter::kFusionOpsAfter], st.ops_after);
}

TEST_F(ObsTest, PinnedFragmentWorkloadHasExactCacheAccounting) {
  // Fixed cut, fixed seed, the default (fragment-local) exact backend: the
  // counter deltas are fully determined by the QPD structure and shot plan.
  const Circuit circ = ghz_line(6);
  const HaradaCut proto;
  const Qpd qpd = cut_circuit(circ, CutPoint{3, 2}, proto, all_z(6));
  const Real exact = uncut_circuit_expectation(circ, all_z(6));

  CutRunConfig cfg;
  cfg.shots = 3000;
  cfg.seed = 11;

  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  const CutRunResult res = run_qpd_estimate(qpd, exact, cfg);
  const obs::MetricsSnapshot d = obs::metrics_delta(before, obs::metrics_snapshot());

  // Every term is computed once (miss) before the draws, and every batch's
  // draw is a hit. One skeleton build total (shared), the rest hits; a
  // classical 1-cut splits into exactly two fragments, both touched by the
  // cut, so each term's are its own variants, each simulating its
  // unconditioned prefix once.
  EXPECT_EQ(d[Counter::kBranchCacheMiss], qpd.size());
  EXPECT_EQ(d[Counter::kBranchCacheHit], d[Counter::kBatchesRun]);
  EXPECT_EQ(d[Counter::kSkeletonCacheMiss], 1u);
  EXPECT_EQ(d[Counter::kSkeletonCacheHit], qpd.size() - 1);
  EXPECT_EQ(d[Counter::kFragmentPrefixRuns], 2 * qpd.size());
  EXPECT_GE(d[Counter::kFragmentUnits], 2 * qpd.size());
  EXPECT_EQ(d[Counter::kShotsSampled], res.details.shots_used);
  EXPECT_EQ(d[Counter::kShotsSampled], cfg.shots);
  // On this workload every measure (cut write + estimate tail) is trailing,
  // so the PR-5 tail fold absorbs all of them: no branch split ever
  // materializes. The counter proving that is exactly zero.
  EXPECT_EQ(d[Counter::kBranchesEnumerated], 0u);
  // Both fragments are at most 4 qubits wide, below kMinFusionWidth: the
  // width rule leaves them unfused.
  EXPECT_EQ(d[Counter::kFusionOpsBefore], 0u);

  // The report brackets exactly the same region.
  EXPECT_TRUE(res.report.metrics_enabled);
  EXPECT_EQ(res.report.counters[Counter::kBranchCacheMiss], d[Counter::kBranchCacheMiss]);
  EXPECT_EQ(res.report.counters[Counter::kBranchCacheHit], d[Counter::kBranchCacheHit]);
  EXPECT_EQ(res.report.counters[Counter::kSkeletonCacheMiss],
            d[Counter::kSkeletonCacheMiss]);
  EXPECT_EQ(res.report.counters[Counter::kShotsSampled], d[Counter::kShotsSampled]);
  EXPECT_EQ(res.report.shots_sampled, res.details.shots_used);
  EXPECT_EQ(res.report.backend, std::string("batched-branch"));
  EXPECT_EQ(res.report.kappa, res.details.kappa);
  EXPECT_GT(res.report.wall_time_ns, 0u);
  EXPECT_FALSE(res.report.simd_tier.empty());
}

TEST_F(ObsTest, FannedOutRunReportsItsOwnCountersWhileAnotherThreadCounts) {
  // A planned run whose fragment variants spread over a 4-worker pool
  // counts on the workers, while another thread bumps the same counters the
  // whole time (every batch sleeps 2 ms, so the two overlap). The report
  // must carry exactly the run's own counts: those of the same evaluation
  // inline on one thread. GHZ-20 at cap 11 has the work to fan out.
  const Circuit circ = ghz_line(20);
  PlannerConfig pcfg;
  pcfg.max_fragment_width = 11;
  pcfg.pair_budget = 0;
  const PlannedExecutor executor(circ, CutPlanner(circ, pcfg).plan());
  const Qpd qpd = executor.build_qpd(Observable::z_all(20));
  ASSERT_TRUE(fanout_pays(FragmentVariants(qpd).work())) << FragmentVariants(qpd).work();
  ThreadPool pool(4);
  CutRunConfig cfg;
  cfg.shots = 4000;
  cfg.seed = 5;
  cfg.max_batch_shots = 256;

  obs::MetricsSnapshot before = obs::metrics_snapshot();
  {
    ThreadPool one(1);
    const qcut::testing::ScopedPool scope(one);
    BatchedBranchBackend(qpd).prepare();
  }
  const obs::MetricsSnapshot inline_counts = obs::metrics_delta(before, obs::metrics_snapshot());
  const std::uint64_t units = inline_counts[Counter::kFragmentUnits];
  const std::uint64_t introducing = FragmentVariants(qpd).introducing_terms().size();
  ASSERT_GT(introducing, 1u);
  ASSERT_EQ(inline_counts[Counter::kBranchCacheMiss], qpd.size());

  std::atomic<bool> done{false};
  std::thread bumper([&done] {
    while (!done.load()) {
      obs::count(Counter::kBranchCacheMiss);
      obs::count(Counter::kFragmentUnits);
      std::this_thread::yield();
    }
  });
  before = obs::metrics_snapshot();
  fault::arm_faults("exec.batch:delay_ms=2");
  CutRunResult res;
  try {
    const qcut::testing::ScopedPool scope(pool);
    res = executor.run_with(qpd, std::nullopt, cfg, BatchedBranchBackend(qpd));
  } catch (...) {
    fault::disarm_faults();
    done = true;
    bumper.join();
    throw;
  }
  fault::disarm_faults();
  const obs::MetricsSnapshot d = obs::metrics_delta(before, obs::metrics_snapshot());
  done = true;
  bumper.join();

  const obs::MetricsSnapshot& c = res.report.counters;
  EXPECT_EQ(c[Counter::kBranchCacheMiss], qpd.size());
  EXPECT_EQ(c[Counter::kFragmentUnits], units);
  EXPECT_EQ(c[Counter::kShotsSampled], res.details.shots_used);
  // One pool index per term that introduces a variant, claimed by at most
  // size() tasks; the draws run inline.
  EXPECT_EQ(c[Counter::kPoolTasks], std::min<std::uint64_t>(introducing, pool.size()));
  // The overlap really happened: the registry saw the other thread's counts.
  EXPECT_GT(d[Counter::kBranchCacheMiss], qpd.size());
  EXPECT_GT(d[Counter::kFragmentUnits], units);
}

/// The benchmark's request class `shape` at width cap `cap`, one cold and
/// one warm request through fresh caches; returns both reports' counters.
std::pair<obs::MetricsSnapshot, obs::MetricsSnapshot> cold_and_warm_counts(
    BenchShape shape, int n, int cap, int pairs, Real overlap) {
  svc::EstimateRequest req;
  req.circuit_qasm = qcut::testing::bench_shape_qasm(shape);
  req.observable = Observable::z_all(n);
  req.planner.max_fragment_width = cap;
  req.planner.pair_budget = pairs;
  req.planner.resource_overlap = overlap;
  req.run_cfg.shots = 100000;
  req.run_cfg.seed = 3102;
  svc::ServiceCaches caches;
  const svc::EstimateResult cold = svc::estimate(req, &caches);
  const svc::EstimateResult warm = svc::estimate(req, &caches);
  EXPECT_FALSE(cold.eval_cache_hit);
  EXPECT_TRUE(warm.eval_cache_hit);
  return {cold.run.report.counters, warm.run.report.counters};
}

TEST_F(ObsTest, ColdRequestsEvaluateEachFragmentVariantOnceAndWarmOnesRunNoPoolTask) {
  // Fragment prefix runs and work units per cold request of the
  // benchmark's classes: a fragment touched by a strict subset of the cuts
  // is evaluated once for all the terms that share it. Before fragment
  // variants, ghz8_cap3 ran 108 prefixes and 189 units, hwe8_cap4 27 and
  // 54. The 1-cut classes share nothing, so their counts did not move.
  struct Want {
    const char* name;
    BenchShape shape;
    int n;
    int cap;
    int pairs;
    Real overlap;
    std::uint64_t prefix_runs;
    std::uint64_t units;
    std::uint64_t terms;
  };
  const Want wants[] = {
      {"ghz8_cap3", BenchShape::kGhz8, 8, 3, 0, 0.5, 24, 45, 27},
      {"hwe8_cap4", BenchShape::kHwe8, 8, 4, 0, 0.5, 15, 42, 9},
      {"hwe8_cap5", BenchShape::kHwe8, 8, 5, 0, 0.5, 6, 9, 3},
      {"hwe8_cap6_nme", BenchShape::kHwe8, 8, 6, 2, 0.9, 4, 5, 3},
      {"ghz30_cap16", BenchShape::kGhz30, 30, 16, 0, 0.5, 6, 9, 3},
      {"brick30_cap16", BenchShape::kBrick30, 30, 16, 0, 0.5, 6, 9, 3},
  };
  ThreadPool pool(4);
  const qcut::testing::ScopedPool scope(pool);
  for (const Want& w : wants) {
    const auto [cold, warm] = cold_and_warm_counts(w.shape, w.n, w.cap, w.pairs, w.overlap);
    EXPECT_EQ(cold[Counter::kFragmentPrefixRuns], w.prefix_runs) << w.name;
    EXPECT_EQ(cold[Counter::kFragmentUnits], w.units) << w.name;
    EXPECT_EQ(cold[Counter::kBranchCacheMiss], w.terms) << w.name;
    // A warm request only draws, inline: no pool task, no evaluation.
    EXPECT_EQ(warm[Counter::kPoolTasks], 0u) << w.name;
    EXPECT_EQ(warm[Counter::kBranchCacheMiss], 0u) << w.name;
    EXPECT_EQ(warm[Counter::kFragmentUnits], 0u) << w.name;
  }
}

TEST_F(ObsTest, ColdRequestsFanOutOnlyWhenTheWorkPays) {
  // A cold narrow request's variants are too little work to fan out: it
  // runs no pool task, and its P(−1) equal, byte for byte, the same QPD's
  // evaluation forced across the pool. The paper's NME class has the work
  // and fans out its introducing terms.
  ThreadPool pool(4);
  const qcut::testing::ScopedPool scope(pool);
  const Circuit ghz = import_qasm(qcut::testing::bench_shape_qasm(BenchShape::kGhz8), "<ghz8>");
  PlannerConfig pcfg;
  pcfg.max_fragment_width = 3;
  pcfg.pair_budget = 0;
  const Qpd qpd = PlannedExecutor(ghz, CutPlanner(ghz, pcfg).plan())
                      .qpd_for(Observable::z_all(8), BackendKind::kBatchedBranch);
  const FragmentVariants variants(qpd);
  ASSERT_FALSE(fanout_pays(variants.work())) << variants.work();
  ASSERT_GT(variants.introducing_terms().size(), 1u);

  obs::MetricsSnapshot before = obs::metrics_snapshot();
  const std::vector<Real> cold = BatchedBranchBackend(qpd).cache().all_prob_one();
  EXPECT_EQ(obs::metrics_delta(before, obs::metrics_snapshot())[Counter::kPoolTasks], 0u);
  before = obs::metrics_snapshot();
  const std::vector<Real> pooled = qcut::testing::fanned_out_prob_one(qpd, pool);
  EXPECT_GT(obs::metrics_delta(before, obs::metrics_snapshot())[Counter::kPoolTasks], 0u);
  ASSERT_EQ(pooled.size(), cold.size());
  EXPECT_EQ(std::memcmp(pooled.data(), cold.data(), cold.size() * sizeof(Real)), 0);

  EXPECT_EQ(cold_and_warm_counts(BenchShape::kGhz8, 8, 3, 0, 0.5).first[Counter::kPoolTasks], 0u);
  const auto [nme, nme_warm] = cold_and_warm_counts(BenchShape::kHwe8, 8, 6, 2, 0.9);
  EXPECT_EQ(nme[Counter::kPoolTasks], 3u);  // 3 introducing terms on 4 workers
  EXPECT_EQ(nme_warm[Counter::kPoolTasks], 0u);
}

TEST_F(ObsTest, BranchEnumerationCountsSplitsAndPrunes) {
  // Bell pair measured on one qubit: the split yields two surviving branches
  // and prunes nothing.
  Circuit bell(2, 1);
  bell.h(0).cx(0, 1).measure(0, 0);
  obs::MetricsSnapshot before = obs::metrics_snapshot();
  const auto branches = run_branches(bell);
  obs::MetricsSnapshot d = obs::metrics_delta(before, obs::metrics_snapshot());
  EXPECT_EQ(branches.size(), 2u);
  EXPECT_EQ(d[Counter::kBranchesEnumerated], 2u);
  EXPECT_EQ(d[Counter::kBranchesPruned], 0u);

  // Measuring |0> directly: the p = 1 outcome survives, the p = 0 outcome is
  // pruned.
  Circuit zero(1, 1);
  zero.measure(0, 0);
  before = obs::metrics_snapshot();
  const auto zb = run_branches(zero);
  d = obs::metrics_delta(before, obs::metrics_snapshot());
  EXPECT_EQ(zb.size(), 1u);
  EXPECT_EQ(d[Counter::kBranchesEnumerated], 1u);
  EXPECT_EQ(d[Counter::kBranchesPruned], 1u);
}

TEST_F(ObsTest, EstimatesAreBitIdenticalWithMetricsAndTracingToggled) {
  const auto run = [] {
    PlannerConfig pcfg;
    pcfg.max_fragment_width = 5;
    CutRunConfig rcfg;
    rcfg.shots = 2000;
    rcfg.seed = 77;
    return plan_and_run(ghz_line(8), Observable::z_all(8), pcfg, rcfg).run.estimate;
  };
  const Real with_metrics = run();
  obs::set_metrics_enabled(false);
  const Real without_metrics = run();
  obs::set_metrics_enabled(true);
  obs::start_tracing();
  const Real with_tracing = run();
  obs::stop_tracing();
  EXPECT_EQ(with_metrics, without_metrics);  // bitwise, not approximate
  EXPECT_EQ(with_metrics, with_tracing);
}

TEST_F(ObsTest, InactiveSpansRecordNothingStraddlingSpansRecord) {
  obs::start_tracing();
  obs::stop_tracing();
  const std::size_t base = obs::trace_event_count();
  {
    obs::TraceSpan span("inactive");  // constructed while tracing is off
  }
  EXPECT_EQ(obs::trace_event_count(), base);

  obs::start_tracing();
  {
    obs::TraceSpan span("straddle");
    obs::stop_tracing();
    // Destruction after stop still records: dropping it would leave the
    // file's nesting stack half-open.
  }
  EXPECT_EQ(obs::trace_event_count(), 1u);
}

struct ParsedEvent {
  std::string name;
  int tid = 0;
  double ts = 0.0;
  double dur = 0.0;
};

/// Parses the trace file's one-event-per-line format. Also checks the
/// skeleton of the document: one trailing metadata-free close, the
/// displayTimeUnit header, and brace balance.
std::vector<ParsedEvent> parse_trace(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<ParsedEvent> events;
  std::string line;
  long brace_balance = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    for (const char ch : line) {
      brace_balance += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    }
    if (line.find("displayTimeUnit") != std::string::npos) {
      saw_header = true;
    }
    const std::size_t pos = line.find("\"ph\": \"X\"");
    if (pos == std::string::npos) {
      continue;
    }
    char name[128] = {0};
    int tid = -1;
    double ts = -1.0;
    double dur = -1.0;
    const int matched =
        std::sscanf(line.c_str(),
                    "    {\"name\": \"%127[^\"]\", \"cat\": \"qcut\", \"ph\": \"X\", "
                    "\"pid\": 1, \"tid\": %d, \"ts\": %lf, \"dur\": %lf",
                    name, &tid, &ts, &dur);
    EXPECT_EQ(matched, 4) << "unparseable event line: " << line;
    events.push_back({name, tid, ts, dur});
  }
  EXPECT_TRUE(saw_header);
  EXPECT_EQ(brace_balance, 0);
  return events;
}

TEST_F(ObsTest, TraceFileIsWellFormedCoversThePipelineAndSpansNest) {
  const std::string path = ::testing::TempDir() + "qcut_test_trace.json";

  obs::start_tracing();
  {
    PlannerConfig pcfg;
    pcfg.max_fragment_width = 5;
    CutRunConfig rcfg;
    rcfg.shots = 2000;
    rcfg.seed = 77;
    plan_and_run(ghz_line(8), Observable::z_all(8), pcfg, rcfg);
  }
  EXPECT_GT(obs::trace_event_count(), 0u);
  obs::write_trace(path);
  EXPECT_EQ(obs::trace_event_count(), 0u);  // buffers drained into the file

  const std::vector<ParsedEvent> events = parse_trace(path);
  ASSERT_FALSE(events.empty());

  // Every pipeline stage shows up: plan -> cut -> fragment -> recombine.
  std::map<std::string, int> by_name;
  for (const ParsedEvent& e : events) {
    ++by_name[e.name];
    EXPECT_GE(e.ts, 0.0);
    EXPECT_GE(e.dur, 0.0);
  }
  for (const char* required :
       {"plan.search", "planned_run", "plan.build_qpd", "exact.reference", "qpd.estimate",
        "engine.run", "engine.batch", "engine.combine", "branch_cache.enumerate",
        "fragment.split", "fragment.eval", "fragment.prefix", "fragment.unit",
        "fragment.recombine", "skeleton.build"}) {
    EXPECT_GT(by_name[required], 0) << "missing span: " << required;
  }

  // Spans come from strictly scoped RAII objects, so per thread they must
  // nest: sorted by start (ties: longest first), each span either starts
  // after the enclosing one ends or ends within it. Tolerance: the file
  // rounds to 1/1000 us.
  constexpr double kEps = 2e-3;
  std::map<int, std::vector<ParsedEvent>> by_tid;
  for (const ParsedEvent& e : events) {
    by_tid[e.tid].push_back(e);
  }
  for (auto& [tid, evs] : by_tid) {
    std::sort(evs.begin(), evs.end(), [](const ParsedEvent& a, const ParsedEvent& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
    });
    std::vector<double> open_ends;
    for (const ParsedEvent& e : evs) {
      while (!open_ends.empty() && e.ts >= open_ends.back() - kEps) {
        open_ends.pop_back();
      }
      if (!open_ends.empty()) {
        EXPECT_LE(e.ts + e.dur, open_ends.back() + kEps)
            << "span '" << e.name << "' on tid " << tid
            << " partially overlaps its enclosing span";
      }
      open_ends.push_back(e.ts + e.dur);
    }
  }
}

TEST_F(ObsTest, RunReportJsonCarriesEverySectionTheCiGateRequires) {
  PlannerConfig pcfg;
  pcfg.max_fragment_width = 5;
  CutRunConfig rcfg;
  rcfg.shots = 1000;
  rcfg.seed = 3;
  const PlannedRunResult out = plan_and_run(ghz_line(8), Observable::z_all(8), pcfg, rcfg);

  EXPECT_EQ(out.run.report.plan_cuts, out.plan->cuts.size());
  EXPECT_GT(out.run.report.shots_budget, 0.0);

  const std::string json = out.run.report.to_json();
  for (const char* key :
       {"\"provenance\"", "\"config\"", "\"shots\"", "\"cache\"", "\"fusion\"",
        "\"kernels\"", "\"pool\"", "\"branches\"", "\"fragment\"", "\"counters\"",
        "\"wall_time_ns\"", "\"branch_hit_rate\"", "\"budget_kappa2_over_eps2\"",
        "\"utilization\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "report missing " << key;
  }
  const std::string prov = obs::provenance_json();
  for (const char* key : {"\"git_sha\"", "\"compiler\"", "\"build_type\"", "\"simd_tier\"",
                          "\"hardware_threads\"", "\"timestamp_utc\""}) {
    EXPECT_NE(prov.find(key), std::string::npos) << "provenance missing " << key;
  }
}

}  // namespace
}  // namespace qcut
