// The service layer, end to end: svc::estimate vs plan_and_run bit-identity,
// cross-request plan/eval caching, the single-flight LRU and coalescing
// primitives, and a live qcut-server driven over loopback TCP (concurrent
// clients, admission control, metrics dump schema, malformed-request
// recovery).
#include <dirent.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "qcut/common/error.hpp"
#include "qcut/common/fault.hpp"
#include "qcut/common/single_flight_cache.hpp"
#include "qcut/common/threadpool.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/plan/planned_executor.hpp"
#include "qcut/sim/qasm.hpp"
#include "qcut/sim/statevector.hpp"
#include "qcut/svc/api.hpp"
#include "qcut/svc/cache.hpp"
#include "qcut/svc/server.hpp"
#include "test_helpers.hpp"

namespace qcut {
namespace svc {
namespace {

using qcut::testing::ghz_line;

/// A 4-qubit workload whose best plan needs a real cut (width cap 3).
Circuit workload_circuit() { return ghz_line(4); }

PlannerConfig workload_planner() {
  PlannerConfig pcfg;
  pcfg.max_fragment_width = 3;
  return pcfg;
}

EstimateRequest workload_request() {
  EstimateRequest req;
  req.circuit = workload_circuit();
  req.observable = Observable::z_all(4);
  req.planner = workload_planner();
  req.run_cfg.shots = 4000;
  req.run_cfg.seed = 11;
  return req;
}

WireEstimateRequest wire_workload_request() {
  WireEstimateRequest req;
  req.circuit_qasm = to_qasm(workload_circuit());
  req.observable = "ZZZZ";
  req.max_fragment_width = 3;
  req.shots = 4000;
  req.seed = 11;
  req.request_id = "t1";
  return req;
}

/// hwe_ansatz_8 at cap 4, as QASM: an 8-qubit multi-cut plan that planned
/// execution runs fragment by fragment.
std::string hwe8_qasm() {
  std::ifstream in(std::string(QCUT_QASM_CORPUS_DIR) + "/hwe_ansatz_8.qasm");
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

EstimateRequest hwe8_request() {
  EstimateRequest req;
  req.circuit_qasm = hwe8_qasm();
  req.observable = Observable::z_all(8);
  req.planner.max_fragment_width = 4;
  req.run_cfg.shots = 20000;
  req.run_cfg.seed = 5;
  return req;
}

WireEstimateRequest wire_hwe8_request() {
  WireEstimateRequest req;
  req.circuit_qasm = hwe8_qasm();
  req.observable = "ZZZZZZZZ";
  req.max_fragment_width = 4;
  req.shots = 20000;
  req.seed = 5;
  req.request_id = "hwe8";
  return req;
}

/// Kernel dispatches of every structure class in a metrics delta.
std::uint64_t kernel_ops(const obs::MetricsSnapshot& d) {
  using obs::Counter;
  return d[Counter::kDispatchDense1q] + d[Counter::kDispatchDense2q] +
         d[Counter::kDispatchGeneric] + d[Counter::kDispatchDiagonal] +
         d[Counter::kDispatchSparsePhase] + d[Counter::kDispatchPermutation];
}

// ---- svc::estimate (no sockets) -------------------------------------------

TEST(ServiceEstimate, CachelessPathIsPlanAndRun) {
  const EstimateRequest req = workload_request();
  const EstimateResult res = estimate(req, nullptr);
  const PlannedRunResult ref =
      plan_and_run(workload_circuit(), Observable::z_all(4), req.planner, req.run_cfg);
  EXPECT_EQ(res.estimate, ref.run.estimate);
  EXPECT_EQ(res.exact, ref.run.exact);
  EXPECT_EQ(res.shots_used, ref.run.details.shots_used);
  EXPECT_FALSE(res.plan_cache_hit);
  EXPECT_FALSE(res.eval_cache_hit);
  EXPECT_GE(res.plan_summary.cuts, 1u);
  EXPECT_GT(res.ci_halfwidth, 0.0);
}

TEST(ServiceEstimate, CachedRepeatIsBitIdenticalAndHits) {
  // The 4-qubit IR workload and the 8-qubit QASM one (whose warm repeat is
  // also a circuit-memo hit).
  for (const EstimateRequest& req : {workload_request(), hwe8_request()}) {
    const int n = req.observable.n_qubits();
    ServiceCaches caches;
    const EstimateResult cold = estimate(req, &caches);
    EXPECT_FALSE(cold.plan_cache_hit) << n;
    EXPECT_FALSE(cold.eval_cache_hit) << n;
    EXPECT_EQ(cold.run.report.backend, "batched-branch") << n;
    const EstimateResult warm = estimate(req, &caches);
    EXPECT_TRUE(warm.plan_cache_hit) << n;
    EXPECT_TRUE(warm.eval_cache_hit) << n;
    EXPECT_EQ(warm.estimate, cold.estimate) << n;
    EXPECT_EQ(warm.shots_used, cold.shots_used) << n;
    EXPECT_EQ(warm.exact, cold.exact) << n;
    EXPECT_EQ(caches.circuits.size(), req.circuit.has_value() ? 0u : 1u) << n;

    // And both equal the cacheless answer: caching only ever saves time.
    const EstimateResult fresh = estimate(req, nullptr);
    EXPECT_EQ(warm.estimate, fresh.estimate) << n;
    EXPECT_EQ(warm.shots_used, fresh.shots_used) << n;
    EXPECT_EQ(warm.exact, fresh.exact) << n;

    // A different seed reuses the warm plan+backend but redraws: same caches,
    // different answer, still bit-identical to its own cacheless run.
    EstimateRequest other = req;
    other.run_cfg.seed = 12;
    const EstimateResult warm_other = estimate(other, &caches);
    EXPECT_TRUE(warm_other.plan_cache_hit) << n;
    EXPECT_TRUE(warm_other.eval_cache_hit) << n;
    EXPECT_EQ(warm_other.estimate, estimate(other, nullptr).estimate) << n;

    // Pool size never changes a bit: cold, warm and cacheless at pools
    // {1, 2, 8} all reproduce the answer above.
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      ThreadPool pool(workers);
      const qcut::testing::ScopedPool scope(pool);
      ServiceCaches pool_caches;
      for (const EstimateResult& r : {estimate(req, &pool_caches), estimate(req, &pool_caches),
                                      estimate(req, nullptr)}) {
        EXPECT_EQ(r.estimate, cold.estimate) << n << " qubits, pool " << workers;
        EXPECT_EQ(r.shots_used, cold.shots_used) << n << " qubits, pool " << workers;
      }
    }
  }
}

TEST(ServiceEstimate, WarmQasmHitSkipsTheParseAndTheExactReference) {
  // A warm hit reuses the memoized circuit, the plan, the eval entry's exact
  // reference and its term probabilities: no statevector kernel runs and no
  // term probability is computed. The cold request shows the check bites.
  obs::set_metrics_enabled(true);
  ServiceCaches caches;
  const EstimateRequest req = hwe8_request();
  const obs::MetricsSnapshot t0 = obs::metrics_snapshot();
  const EstimateResult cold = estimate(req, &caches);
  const obs::MetricsSnapshot t1 = obs::metrics_snapshot();
  const EstimateResult warm = estimate(req, &caches);
  const obs::MetricsSnapshot t2 = obs::metrics_snapshot();

  const obs::MetricsSnapshot cold_delta = obs::metrics_delta(t0, t1);
  const obs::MetricsSnapshot warm_delta = obs::metrics_delta(t1, t2);
  EXPECT_GT(kernel_ops(cold_delta), 0u);
  EXPECT_GT(cold_delta[obs::Counter::kBranchCacheMiss], 0u);
  EXPECT_TRUE(warm.eval_cache_hit);
  EXPECT_EQ(kernel_ops(warm_delta), 0u);
  EXPECT_EQ(warm_delta[obs::Counter::kBranchCacheMiss], 0u);
  EXPECT_EQ(warm.exact, cold.exact);
  EXPECT_EQ(warm.estimate, cold.estimate);
}

TEST(ServiceEstimate, EvalKeyHoldsTheBackendKind) {
  // The serial-shot reference is a different execution path with its own
  // entry.
  EXPECT_NE(eval_key("p", Observable::z_all(2), BackendKind::kBatchedBranch),
            eval_key("p", Observable::z_all(2), BackendKind::kSerialShot));
}

TEST(ServiceEstimate, MalformedQasmIsRejectedEveryTimeAndNeverMemoized) {
  ServiceCaches caches;
  EstimateRequest bad = hwe8_request();
  bad.circuit_qasm = "OPENQASM 2.0;\nqreg q[8];\nfoo q[0];\n";
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      (void)estimate(bad, &caches);
      ADD_FAILURE() << "malformed QASM accepted on attempt " << attempt;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidRequest) << e.what();
    }
  }
  EXPECT_EQ(caches.circuits.size(), 0u);

  // A parse that succeeds is not memoized when the request then fails
  // validation: only requests that resolve a plan pin their circuit.
  EstimateRequest narrow_obs = hwe8_request();
  narrow_obs.observable = Observable::z_all(4);
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      (void)estimate(narrow_obs, &caches);
      ADD_FAILURE() << "width mismatch accepted on attempt " << attempt;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidRequest) << e.what();
    }
  }
  EXPECT_EQ(caches.circuits.size(), 0u);

  // The same circuit with a valid observable is memoized once it plans.
  (void)estimate(hwe8_request(), &caches);
  EXPECT_EQ(caches.circuits.size(), 1u);
}

TEST(ServiceEstimate, QasmAndIrRequestsAgreeBitIdentically) {
  EstimateRequest ir_req = workload_request();
  EstimateRequest qasm_req = ir_req;
  qasm_req.circuit.reset();
  qasm_req.circuit_qasm = to_qasm(workload_circuit());
  const EstimateResult a = estimate(ir_req, nullptr);
  const EstimateResult b = estimate(qasm_req, nullptr);
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.exact, b.exact);

  // The canonical circuit hash sees through the QASM round trip, so the two
  // forms share one plan-cache entry.
  ServiceCaches caches;
  (void)estimate(ir_req, &caches);
  const EstimateResult via_qasm = estimate(qasm_req, &caches);
  EXPECT_TRUE(via_qasm.plan_cache_hit);

  // The other order too: a memoized QASM parse carries the canonical hash,
  // so the IR form still finds the QASM form's plan.
  ServiceCaches qasm_first;
  (void)estimate(qasm_req, &qasm_first);
  const EstimateResult via_ir = estimate(ir_req, &qasm_first);
  EXPECT_TRUE(via_ir.plan_cache_hit);
  EXPECT_EQ(via_ir.estimate, a.estimate);
}

TEST(ServiceEstimate, MeasuredAndUnmeasuredQasmAgreeBitIdentically) {
  // Benchmark circuits conventionally end in `creg c[n]; measure q -> c;`.
  // The request path strips those measurements, and with them the unused
  // register, so the measured form plans, cuts and answers exactly like the
  // measurement-free one.
  EstimateRequest plain = workload_request();
  plain.circuit.reset();
  plain.circuit_qasm = to_qasm(workload_circuit());
  EstimateRequest measured = plain;
  measured.circuit_qasm += "creg c[4];\nmeasure q -> c;\n";
  const EstimateResult a = estimate(plain, nullptr);
  const EstimateResult b = estimate(measured, nullptr);
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.shots_used, b.shots_used);
  EXPECT_EQ(a.ci_halfwidth, b.ci_halfwidth);
  EXPECT_EQ(a.plan_summary.cuts, b.plan_summary.cuts);

  ServiceCaches caches;
  (void)estimate(plain, &caches);
  EXPECT_TRUE(estimate(measured, &caches).plan_cache_hit);
}

TEST(ServiceEstimate, EpsilonDrivesBudgetAndShotCapBoundsIt) {
  EstimateRequest req = workload_request();
  req.run_cfg.shots = 0;  // run at the ε-predicted budget
  req.epsilon = 0.2;
  const EstimateResult loose = estimate(req, nullptr);
  req.epsilon = 0.1;
  const EstimateResult tight = estimate(req, nullptr);
  // κ²/ε²: halving ε quadruples the budget (up to ceil and fp rounding).
  EXPECT_NEAR(tight.plan_summary.predicted_shots / loose.plan_summary.predicted_shots, 4.0,
              1e-9);
  EXPECT_NEAR(static_cast<double>(tight.shots_used),
              4.0 * static_cast<double>(loose.shots_used), 4.0);

  req.shot_cap = loose.shots_used / 2;
  const EstimateResult capped = estimate(req, nullptr);
  EXPECT_EQ(capped.shots_used, req.shot_cap);
}

TEST(ServiceEstimate, ShotCapBoundsABudgetPastTheIntegerRange) {
  // κ²/ε² above 1e18 has no integer shot count: with a cap the request runs
  // exactly the cap, on the cacheless and the cached path; without one it
  // throws.
  EstimateRequest req = workload_request();
  req.run_cfg.shots = 0;
  req.epsilon = 1e-10;  // κ ≥ 1 → κ²/ε² ≥ 1e20
  ServiceCaches caches;
  for (ServiceCaches* c : {static_cast<ServiceCaches*>(nullptr), &caches}) {
    req.shot_cap = 3000;
    const EstimateResult capped = estimate(req, c);
    EXPECT_GT(capped.plan_summary.predicted_shots, 1e18);
    EXPECT_EQ(capped.shots_used, 3000u);
    req.shot_cap = 0;
    EXPECT_THROW(estimate(req, c), Error);
  }
}

TEST(ServiceEstimate, SerialShotRequestsReportTheBackendThatRan) {
  // The report names the backend that ran: a serial-shot request, cacheless
  // and then cold and warm through one cache, never reads batched-branch.
  EstimateRequest req = workload_request();
  req.run_cfg.backend = BackendKind::kSerialShot;
  req.run_cfg.shots = 400;  // every shot is a statevector simulation
  ServiceCaches caches;
  const EstimateResult cacheless = estimate(req, nullptr);
  const EstimateResult cold = estimate(req, &caches);
  const EstimateResult warm = estimate(req, &caches);
  for (const EstimateResult* r : {&cacheless, &cold, &warm}) {
    EXPECT_EQ(r->run.report.backend, "serial-shot");
  }
  EXPECT_FALSE(cold.eval_cache_hit);
  EXPECT_TRUE(warm.eval_cache_hit);
  EXPECT_EQ(warm.estimate, cold.estimate);
  EXPECT_EQ(warm.estimate, cacheless.estimate);
}

TEST(ServiceEstimate, FrontDoorValidationNamesTheProblem) {
  EstimateRequest req = workload_request();
  req.observable = Observable::z_all(3);  // circuit is 4 wide
  EXPECT_THROW(estimate(req), Error);

  req = workload_request();
  req.observable = Observable::parse("IIII");
  EXPECT_THROW(estimate(req), Error);

  req = workload_request();
  req.circuit.reset();  // and no QASM either
  EXPECT_THROW(estimate(req), Error);
}

TEST(ServiceEstimate, ConcurrentColdRequestsPlanOnceAndBuildOneEvalEntry) {
  // Two cold requests for one circuit, different seeds, racing on one cache
  // bundle: the second waits for the first's plan and eval builds instead of
  // repeating them, and each answer equals its request run alone.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(workers);
    std::vector<EstimateRequest> reqs(2, hwe8_request());
    reqs[1].run_cfg.seed = 6;
    std::vector<EstimateResult> alone;
    {
      const qcut::testing::ScopedPool scope(pool);
      for (const EstimateRequest& req : reqs) {
        alone.push_back(estimate(req, nullptr));
      }
    }

    ServiceCaches caches;
    std::vector<EstimateResult> raced(reqs.size());
    std::atomic<bool> go{false};
    const obs::MetricsSnapshot before = obs::metrics_snapshot();
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      threads.emplace_back([&, i] {
        const qcut::testing::ScopedPool scope(pool);
        while (!go.load()) {
          std::this_thread::yield();
        }
        raced[i] = estimate(reqs[i], &caches);
      });
    }
    go.store(true);
    for (std::thread& th : threads) {
      th.join();
    }
    const obs::MetricsSnapshot d = obs::metrics_delta(before, obs::metrics_snapshot());
    EXPECT_EQ(d[obs::Counter::kPlanCacheMiss], 1u) << "pool " << workers;
    EXPECT_EQ(d[obs::Counter::kEvalCacheMiss], 1u) << "pool " << workers;
    EXPECT_EQ(d[obs::Counter::kPlanCacheHit], 1u) << "pool " << workers;
    EXPECT_EQ(d[obs::Counter::kEvalCacheHit], 1u) << "pool " << workers;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(raced[i].estimate, alone[i].estimate) << "pool " << workers << ", request " << i;
      EXPECT_EQ(raced[i].shots_used, alone[i].shots_used) << "pool " << workers;
      EXPECT_EQ(raced[i].exact, alone[i].exact) << "pool " << workers;
    }
    EXPECT_NE(raced[0].estimate, raced[1].estimate) << "pool " << workers;
  }
}

/// 8 qubits, two layers: ry on every qubit, then cx on the even pairs
/// (layer 0) or the odd pairs (layer 1). At cap 4 its plan takes 2 cuts.
Circuit two_layer_ry_cx_8() {
  Circuit c(8, 0);
  for (int layer = 0; layer < 2; ++layer) {
    for (int q = 0; q < 8; ++q) {
      c.ry(q, 0.2 + 0.15 * q + 0.5 * layer);
    }
    for (int q = layer; q + 1 < 8; q += 2) {
      c.cx(q, q + 1);
    }
  }
  return c;
}

TEST(ServiceEstimate, WarmEntryRunsOnTheRequestsPoolNotTheBuildersPool) {
  // A cached eval entry's backend holds no pool: a warm request's work runs
  // on the pool of the request at hand, never on the one that built the
  // entry. Pool A builds the entry with a 1-shot run (most terms are still
  // unevaluated), then a 50,000-shot eval hit under pool B evaluates them.
  // With A alive, A runs none of that work; with A destroyed, nothing
  // touches it (a backend that kept A would use it after free, which the
  // ASan job reports). Either way the answer is B's cacheless one.
  EstimateRequest req;
  req.circuit = two_layer_ry_cx_8();
  req.observable = Observable::z_all(8);
  req.planner.max_fragment_width = 4;
  req.run_cfg.seed = 17;
  for (const bool destroy_a : {false, true}) {
    ServiceCaches caches;
    auto pool_a = std::make_unique<ThreadPool>(4);
    {
      const qcut::testing::ScopedPool scope(*pool_a);
      EstimateRequest one_shot = req;
      one_shot.run_cfg.shots = 1;
      const EstimateResult built = estimate(one_shot, &caches);
      ASSERT_EQ(built.plan->cuts.size(), 2u);
      ASSERT_EQ(built.run.details.shots_per_term.size(), 9u);
      EXPECT_FALSE(built.eval_cache_hit);
    }
    const std::uint64_t a_tasks = pool_a->tasks_run();
    if (destroy_a) {
      pool_a.reset();
    }
    ThreadPool pool_b(4);
    const qcut::testing::ScopedPool scope(pool_b);
    req.run_cfg.shots = 50000;
    const EstimateResult warm = estimate(req, &caches);
    EXPECT_TRUE(warm.eval_cache_hit) << "destroy A: " << destroy_a;
    if (pool_a != nullptr) {
      EXPECT_EQ(pool_a->tasks_run(), a_tasks) << "the warm request ran work on pool A";
    }
    const EstimateResult cacheless = estimate(req, nullptr);
    EXPECT_EQ(warm.estimate, cacheless.estimate) << "destroy A: " << destroy_a;
    EXPECT_EQ(warm.shots_used, cacheless.shots_used) << "destroy A: " << destroy_a;
  }
}

TEST(ServiceEstimate, RequestIdLandsInTheReport) {
  EstimateRequest req = workload_request();
  req.request_id = "my-req-42";
  const EstimateResult res = estimate(req, nullptr);
  EXPECT_EQ(res.run.report.request_id, "my-req-42");
  EXPECT_NE(res.run.report.to_json().find("my-req-42"), std::string::npos);
}

// ---- cache primitives ------------------------------------------------------

TEST(ServiceCachesTest, LruEvictsLeastRecentlyUsed) {
  SingleFlightCache<int> cache(2);
  cache.put("a", std::make_shared<int>(1));
  cache.put("b", std::make_shared<int>(2));
  ASSERT_NE(cache.get("a"), nullptr);  // refresh a; b is now LRU
  cache.put("c", std::make_shared<int>(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.get("b"), nullptr);
  EXPECT_NE(cache.get("a"), nullptr);
  EXPECT_NE(cache.get("c"), nullptr);
}

TEST(ServiceCachesTest, FirstInsertWinsOnRace) {
  SingleFlightCache<int> cache(4);
  auto first = std::make_shared<int>(1);
  EXPECT_EQ(cache.put("k", first), first);
  // A racing builder's insert is discarded; everyone shares the resident.
  EXPECT_EQ(cache.put("k", std::make_shared<int>(2)), first);
  EXPECT_EQ(*cache.get("k"), 1);
}

TEST(ServiceCachesTest, ConcurrentCallersOfOneKeyShareASingleBuild) {
  SingleFlightCache<int> cache(4);
  constexpr int kThreads = 8;
  std::atomic<int> builds{0};
  std::atomic<int> hits{0};
  std::vector<std::shared_ptr<int>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool hit = false;
      got[static_cast<std::size_t>(t)] = cache.get_or_build(
          "k",
          [&] {
            builds.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            return std::make_shared<int>(7);
          },
          &hit);
      hits.fetch_add(hit ? 1 : 0);
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(hits.load(), kThreads - 1);  // every waiter counts a hit
  for (const std::shared_ptr<int>& p : got) {
    EXPECT_EQ(p, got[0]);
  }
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServiceCachesTest, ThrowingBuildIsNotCachedAndTheNextCallBuilds) {
  SingleFlightCache<int> cache(4);
  bool hit = true;
  const auto fail = []() -> std::shared_ptr<int> { throw Error("boom"); };
  EXPECT_THROW(cache.get_or_build("k", fail, &hit), Error);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get("k"), nullptr);
  const std::shared_ptr<int> v =
      cache.get_or_build("k", [] { return std::make_shared<int>(3); }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(*v, 3);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServiceCachesTest, InjectedInsertFaultLeavesTheCacheUnchanged) {
  SingleFlightCache<int> cache(4);
  cache.put("a", std::make_shared<int>(1));
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return std::make_shared<int>(2);
  };
  bool hit = true;
  fault::arm_faults("cache.insert:throw");
  EXPECT_THROW(cache.get_or_build("b", build, &hit), Error);
  EXPECT_THROW(cache.put("c", std::make_shared<int>(3)), Error);
  fault::disarm_faults();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.get("b"), nullptr);
  EXPECT_EQ(*cache.get_or_build("b", build, &hit), 2);  // the failed build is retried
  EXPECT_FALSE(hit);
  EXPECT_EQ(builds, 2);
}

TEST(ServiceCachesTest, CapacityOneHoldsOnlyTheNewestKey) {
  SingleFlightCache<int> cache(1);
  cache.put("a", std::make_shared<int>(1));
  bool hit = true;
  cache.get_or_build("b", [] { return std::make_shared<int>(2); }, &hit);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.get("a"), nullptr);
  EXPECT_EQ(*cache.get("b"), 2);
  cache.put("c", std::make_shared<int>(3));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.get("b"), nullptr);
  EXPECT_EQ(*cache.get("c"), 3);
}

TEST(ServiceCachesTest, CircuitHashIgnoresLabelsButNotStructure) {
  Circuit a(2, 0);
  a.h(0).cx(0, 1);
  Circuit b(2, 0);
  b.gate(a.ops()[0].matrix(), {0}, "renamed").cx(0, 1);
  EXPECT_EQ(circuit_hash(a), circuit_hash(b));

  Circuit c(2, 0);
  c.h(1).cx(0, 1);  // different qubit
  EXPECT_NE(circuit_hash(a), circuit_hash(c));

  PlannerConfig p1, p2;
  p2.target_accuracy = 0.01;
  EXPECT_NE(plan_key(circuit_hash(a), p1), plan_key(circuit_hash(a), p2));
}

TEST(CoalescingMapTest, CompleteReturnsEveryWaiterInJoinOrder) {
  CoalescingMap map;
  ASSERT_TRUE(map.join("k", 1));
  EXPECT_FALSE(map.join("k", 2));
  EXPECT_FALSE(map.join("k", 3));
  EXPECT_EQ(map.inflight(), 1u);
  EXPECT_EQ(map.waiters("k"), 3u);

  EXPECT_EQ(map.complete("k"), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(map.inflight(), 0u);
  EXPECT_TRUE(map.complete("k").empty());  // already retired

  // After completion the key starts fresh.
  EXPECT_TRUE(map.join("k", 4));
  EXPECT_EQ(map.complete("k"), (std::vector<std::uint64_t>{4}));

  // Distinct keys never merge.
  EXPECT_TRUE(map.join("x", 5));
  EXPECT_TRUE(map.join("y", 6));
  EXPECT_EQ(map.complete("x"), (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(map.complete("y"), (std::vector<std::uint64_t>{6}));
}

TEST(CoalescingMapTest, LeaveCancelsTheLeaderOnlyWhenTheLastWaiterGoes) {
  CoalescingMap map;
  auto cancel = std::make_shared<CancelToken>();
  ASSERT_TRUE(map.join("k", 1, cancel));
  EXPECT_FALSE(map.join("k", 2));
  EXPECT_EQ(map.waiters("k"), 2u);

  map.leave("k", 1);  // the leader's client departs: the run still has a reader
  EXPECT_FALSE(cancel->cancelled());
  EXPECT_EQ(map.waiters("k"), 1u);
  map.leave("k", 1);  // an unknown waiter: no-op
  EXPECT_EQ(map.waiters("k"), 1u);

  map.leave("k", 2);  // the LAST waiter departs: nobody is left to read the answer
  EXPECT_TRUE(cancel->cancelled());

  EXPECT_TRUE(map.complete("k").empty());
  map.leave("k", 2);  // no-op after completion
  EXPECT_TRUE(map.join("k", 3));
  map.complete("k");

  // A leader with no token: leave() of the last waiter is simply a no-op.
  EXPECT_TRUE(map.join("p", 4));
  map.leave("p", 4);
  EXPECT_TRUE(map.complete("p").empty());
}

// ---- live server over loopback TCP ----------------------------------------

/// Parses one "qcut_<name> <value>" gauge out of a metrics dump.
std::uint64_t metrics_gauge(const std::string& dump, const std::string& name) {
  const std::string needle = name + " ";
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(needle, 0) == 0) {
      return std::stoull(line.substr(needle.size()));
    }
  }
  return 0;
}

TEST(ServerTest, AnswersBitIdenticallyToInProcessAndCachesRepeats) {
  ServerConfig cfg;
  cfg.workers = 2;
  QcutServer server(cfg);
  server.start();
  ASSERT_GT(server.port(), 0);

  const PlannedRunResult ref = plan_and_run(workload_circuit(), Observable::z_all(4),
                                            workload_planner(), workload_request().run_cfg);

  QcutClient client("127.0.0.1", server.port());
  const WireEstimateResponse cold = client.estimate(wire_workload_request());
  ASSERT_EQ(cold.status, static_cast<std::uint8_t>(WireStatus::kOk)) << cold.error;
  EXPECT_EQ(cold.estimate, ref.run.estimate);  // bit-identical across the wire
  EXPECT_EQ(cold.exact, ref.run.exact);
  EXPECT_EQ(cold.shots_used, ref.run.details.shots_used);
  EXPECT_EQ(cold.plan_cache_hit, 0);
  EXPECT_EQ(cold.eval_cache_hit, 0);
  EXPECT_GE(cold.plan_cuts, 1u);

  // Second identical request: served from the plan/eval caches, same bits.
  const WireEstimateResponse warm = client.estimate(wire_workload_request());
  ASSERT_EQ(warm.status, static_cast<std::uint8_t>(WireStatus::kOk)) << warm.error;
  EXPECT_EQ(warm.plan_cache_hit, 1);
  EXPECT_EQ(warm.eval_cache_hit, 1);
  EXPECT_EQ(warm.estimate, cold.estimate);

  // The per-request report carries the request id and scoped counters.
  EXPECT_NE(warm.report_json.find("request_id"), std::string::npos) << warm.report_json;
  EXPECT_NE(warm.report_json.find("\"t1\""), std::string::npos) << warm.report_json;
  server.stop();
}

TEST(ServerTest, ConcurrentClientsGetBitIdenticalAnswersAtEveryConcurrency) {
  // The 4-qubit workload and the fragment-routed 8-qubit one, at server
  // pools of {1, 2, 8} workers and client concurrency {1, 2, 8}: every
  // answer equals the in-process one, bit for bit.
  const Real ref4 = plan_and_run(workload_circuit(), Observable::z_all(4), workload_planner(),
                                 workload_request().run_cfg)
                        .run.estimate;
  const EstimateResult ref8 = estimate(hwe8_request(), nullptr);
  const std::vector<std::pair<WireEstimateRequest, Real>> cases = {
      {wire_workload_request(), ref4}, {wire_hwe8_request(), ref8.estimate}};

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ServerConfig cfg;
    cfg.workers = workers;
    QcutServer server(cfg);
    server.start();
    for (const auto& [wreq, ref] : cases) {
      for (int concurrency : {1, 2, 8}) {
        std::vector<Real> estimates(static_cast<std::size_t>(concurrency), 0.0);
        std::vector<std::uint64_t> shots(static_cast<std::size_t>(concurrency), 0);
        std::vector<std::thread> threads;
        for (int t = 0; t < concurrency; ++t) {
          threads.emplace_back([&, t] {
            QcutClient client("127.0.0.1", server.port());
            const WireEstimateResponse resp = client.estimate(wreq);
            ASSERT_EQ(resp.status, static_cast<std::uint8_t>(WireStatus::kOk)) << resp.error;
            estimates[static_cast<std::size_t>(t)] = resp.estimate;
            shots[static_cast<std::size_t>(t)] = resp.shots_used;
          });
        }
        for (auto& t : threads) {
          t.join();
        }
        for (std::size_t t = 0; t < estimates.size(); ++t) {
          EXPECT_EQ(estimates[t], ref) << wreq.observable << " workers " << workers
                                       << " concurrency " << concurrency;
          EXPECT_EQ(shots[t], wreq.shots) << wreq.observable;
        }
      }
    }
    server.stop();
  }
}

TEST(ServerTest, CoalescingMergesIdenticalInFlightRequests) {
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.debug_request_delay_ms = 150;  // hold requests open so twins overlap
  QcutServer server(cfg);
  server.start();

  // The fragment-routed 8-qubit request; coalesced answers must equal the
  // in-process one bit for bit.
  const EstimateResult ref = estimate(hwe8_request(), nullptr);
  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  constexpr int kClients = 6;
  std::vector<Real> estimates(kClients, 0.0);
  std::vector<std::uint64_t> shots(kClients, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      QcutClient client("127.0.0.1", server.port());
      const WireEstimateResponse resp = client.estimate(wire_hwe8_request());
      ASSERT_EQ(resp.status, static_cast<std::uint8_t>(WireStatus::kOk)) << resp.error;
      estimates[static_cast<std::size_t>(t)] = resp.estimate;
      shots[static_cast<std::size_t>(t)] = resp.shots_used;
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // Coalescing must never change answers; with the delay, at least one of
  // the six identical requests overlapped a twin and was merged.
  for (int t = 0; t < kClients; ++t) {
    EXPECT_EQ(estimates[static_cast<std::size_t>(t)], ref.estimate);
    EXPECT_EQ(shots[static_cast<std::size_t>(t)], ref.shots_used);
  }
  const obs::MetricsSnapshot delta = obs::metrics_delta(before, obs::metrics_snapshot());
  EXPECT_GE(delta[obs::Counter::kSvcCoalesced], 1u);
  EXPECT_LE(delta[obs::Counter::kSvcCoalesced], static_cast<std::uint64_t>(kClients - 1));
  server.stop();
}

TEST(ServerTest, AdmissionControlRejectsWithRetryAfterUnderOverload) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_inflight = 1;
  cfg.debug_request_delay_ms = 200;
  QcutServer server(cfg);
  server.start();

  // Distinct seeds: the requests must NOT coalesce, so the second one in
  // flight trips the admission cap. Clients start 40 ms apart — well inside
  // the leader's 200 ms execution window, well outside scheduling jitter.
  constexpr int kClients = 4;
  std::vector<std::uint8_t> statuses(kClients, 0);
  std::vector<std::uint64_t> retry_ms(kClients, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      std::this_thread::sleep_for(std::chrono::milliseconds(40 * t));
      WireEstimateRequest req = wire_workload_request();
      req.seed = 1000 + static_cast<std::uint64_t>(t);
      QcutClient client("127.0.0.1", server.port());
      const WireEstimateResponse resp = client.estimate(req);
      statuses[static_cast<std::size_t>(t)] = resp.status;
      retry_ms[static_cast<std::size_t>(t)] = resp.retry_after_ms;
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  int ok = 0, rejected = 0;
  for (int t = 0; t < kClients; ++t) {
    if (statuses[static_cast<std::size_t>(t)] ==
        static_cast<std::uint8_t>(WireStatus::kRetryAfter)) {
      ++rejected;
      EXPECT_GT(retry_ms[static_cast<std::size_t>(t)], 0u);
    } else if (statuses[static_cast<std::size_t>(t)] ==
               static_cast<std::uint8_t>(WireStatus::kOk)) {
      ++ok;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(rejected, 1);

  // After the burst drains, a retried request succeeds.
  QcutClient client("127.0.0.1", server.port());
  WireEstimateRequest req = wire_workload_request();
  req.seed = 4242;
  WireEstimateResponse resp = client.estimate(req);
  for (int attempt = 0; attempt < 10 &&
                        resp.status == static_cast<std::uint8_t>(WireStatus::kRetryAfter);
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(resp.retry_after_ms));
    resp = client.estimate(req);
  }
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(WireStatus::kOk)) << resp.error;
  server.stop();
}

TEST(ServerTest, MetricsDumpHasTheDocumentedSchema) {
  ServerConfig cfg;
  cfg.workers = 2;
  QcutServer server(cfg);
  server.start();

  QcutClient client("127.0.0.1", server.port());
  (void)client.estimate(wire_workload_request());
  (void)client.estimate(wire_workload_request());
  const std::string dump = client.metrics();

  // Every line is "qcut_<ident> <uint>"; all obs counters are present.
  std::istringstream lines(dump);
  std::string line;
  std::set<std::string> names;
  while (std::getline(lines, line)) {
    const std::size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    ASSERT_EQ(name.rfind("qcut_", 0), 0u) << line;
    for (char c : name.substr(5)) {
      ASSERT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_') << line;
    }
    ASSERT_FALSE(value.empty()) << line;
    for (char c : value) {
      ASSERT_TRUE(std::isdigit(static_cast<unsigned char>(c))) << line;
    }
    names.insert(name);
  }
  for (int i = 0; i < obs::kCounterCount; ++i) {
    EXPECT_TRUE(names.count(std::string("qcut_") +
                            obs::counter_name(static_cast<obs::Counter>(i))))
        << obs::counter_name(static_cast<obs::Counter>(i));
  }
  EXPECT_TRUE(names.count("qcut_svc_inflight"));
  EXPECT_TRUE(names.count("qcut_plan_cache_size"));
  EXPECT_TRUE(names.count("qcut_eval_cache_size"));
  server.stop();
}

/// Entries of a /proc directory (".", ".." and, for /proc/self/fd, the
/// directory stream's own fd included, so only differences are meaningful).
int proc_entries(const char* path) {
  DIR* dir = ::opendir(path);
  if (dir == nullptr) {
    return -1;
  }
  int n = 0;
  while (::readdir(dir) != nullptr) {
    ++n;
  }
  ::closedir(dir);
  return n;
}

int open_fd_count() { return proc_entries("/proc/self/fd"); }

/// A plain blocking loopback socket to the server, for byte-level framing
/// tests. A nonzero `rcvbuf` shrinks its receive buffer before connecting.
int raw_connect(int port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

std::vector<std::uint8_t> estimate_frame(const WireEstimateRequest& req) {
  return encode_frame(Frame{MsgType::kEstimateRequest, encode_estimate_request(req)});
}

/// Reads one whole frame; a short read (EOF or a receive timeout) throws.
Frame read_frame(int fd) {
  std::vector<std::uint8_t> bytes(kFrameHeaderSize);
  QCUT_CHECK(::recv(fd, bytes.data(), bytes.size(), MSG_WAITALL) ==
                 static_cast<ssize_t>(bytes.size()),
             "short read of a frame header");
  const FrameHeader h = decode_frame_header(bytes.data(), bytes.size());
  bytes.resize(kFrameHeaderSize + h.payload_len);
  QCUT_CHECK(h.payload_len == 0 ||
                 ::recv(fd, bytes.data() + kFrameHeaderSize, h.payload_len, MSG_WAITALL) ==
                     static_cast<ssize_t>(h.payload_len),
             "short read of a frame payload");
  return decode_frame(bytes);
}

TEST(ServerTest, IdleConnectionsAddNoThreads) {
  // One I/O thread serves every connection: the server costs its workers
  // plus that thread, however many clients sit connected.
  const int before = proc_entries("/proc/self/task");
  ServerConfig cfg;
  cfg.workers = 4;
  QcutServer server(cfg);
  server.start();
  std::vector<std::unique_ptr<QcutClient>> clients;
  const auto threads_with = [&](std::size_t n) {
    while (clients.size() < n) {
      clients.push_back(std::make_unique<QcutClient>("127.0.0.1", server.port()));
      (void)clients.back()->metrics();  // accepted and served; idle from here on
    }
    return proc_entries("/proc/self/task");
  };
  const int one = threads_with(1);
  const int many = threads_with(128);
  EXPECT_EQ(many, one);
  EXPECT_EQ(one - before, 4 + 1);
  clients.clear();
  server.stop();
}

TEST(ServerTest, SplitAndPipelinedFramesAreAnsweredInOrder) {
  // One request sent a byte per write, then three frames in one write (the
  // first a repeat, so it is a warm hit). Each answer equals, bit for bit
  // (bar the report's timings), the answer to the same sequence sent one
  // request at a time to a fresh server.
  std::vector<WireEstimateRequest> order(4, wire_workload_request());
  for (std::size_t i = 2; i < order.size(); ++i) {
    order[i].seed = 100 + i;
    order[i].shots = 1000 * i;
  }
  const auto comparable = [](WireEstimateResponse resp) {
    resp.report_json.clear();
    return encode_estimate_response(resp);
  };
  std::vector<std::vector<std::uint8_t>> expected;
  {
    QcutServer server{ServerConfig{}};
    server.start();
    QcutClient client("127.0.0.1", server.port());
    for (const WireEstimateRequest& req : order) {
      expected.push_back(comparable(client.estimate(req)));
    }
  }

  QcutServer server{ServerConfig{}};
  server.start();
  const int fd = raw_connect(server.port());
  for (const std::uint8_t byte : estimate_frame(order[0])) {
    ASSERT_EQ(::send(fd, &byte, 1, MSG_NOSIGNAL), 1);
  }
  std::vector<std::uint8_t> pipelined;
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::vector<std::uint8_t> frame = estimate_frame(order[i]);
    pipelined.insert(pipelined.end(), frame.begin(), frame.end());
  }
  ASSERT_EQ(::send(fd, pipelined.data(), pipelined.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(pipelined.size()));
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Frame frame = read_frame(fd);
    ASSERT_EQ(frame.type, MsgType::kEstimateResponse) << i;
    EXPECT_EQ(comparable(decode_estimate_response(frame.payload)), expected[i]) << i;
  }
  ::close(fd);
  server.stop();
}

TEST(ServerTest, AClientThatNeverReadsStallsNoOne) {
  ServerConfig cfg;
  cfg.workers = 2;
  QcutServer server(cfg);
  server.start();

  // The hog pipelines 4,000 metrics requests (~5 MB of answers) through a
  // tiny receive window and never reads: the server's writes to it stall.
  const int hog = raw_connect(server.port(), /*rcvbuf=*/4096);
  const std::vector<std::uint8_t> one = encode_frame(Frame{MsgType::kMetricsRequest, {}});
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < 4000; ++i) {
    burst.insert(burst.end(), one.begin(), one.end());
  }
  // Blocks for as long as the server, rightly, stops reading the hog.
  std::thread pusher([&] { (void)::send(hog, burst.data(), burst.size(), MSG_NOSIGNAL); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Another client is still answered, within a receive timeout.
  const int other = raw_connect(server.port());
  const timeval timeout{10, 0};
  ::setsockopt(other, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  const std::vector<std::uint8_t> request = estimate_frame(wire_workload_request());
  ASSERT_EQ(::send(other, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  const Frame answer = read_frame(other);
  ASSERT_EQ(answer.type, MsgType::kEstimateResponse);
  EXPECT_EQ(decode_estimate_response(answer.payload).status,
            static_cast<std::uint8_t>(WireStatus::kOk));

  // The hog's answers still sit unread, and stop() does not wait on them.
  int unread = 0;
  ::ioctl(hog, FIONREAD, &unread);
  EXPECT_GT(unread, 0);
  server.stop();
  pusher.join();
  ::close(hog);
  ::close(other);
}

TEST(ServerTest, OnePoolPerProcessWideSweepsStayOnTheRequestsWorker) {
  // The daemon names its own pool in every request's context, so statevector
  // sweeps from the threshold width up run inline on the request's worker:
  // the global pool never runs a task. The threshold is lowered to 18 so an
  // 18-qubit uncut GHZ (its fragment and its exact reference) crosses it.
  struct ThresholdGuard {
    ~ThresholdGuard() { Statevector::set_parallel_min_qubits(22); }
  } guard;
  Statevector::set_parallel_min_qubits(18);
  ServerConfig cfg;
  cfg.workers = 2;
  QcutServer server(cfg);
  server.start();

  WireEstimateRequest req;
  req.circuit_qasm = to_qasm(ghz_line(18));
  req.observable = std::string(18, 'Z');
  req.max_fragment_width = 18;
  req.shots = 2000;
  req.seed = 3;
  const std::uint64_t global_tasks = global_pool().tasks_run();
  QcutClient client("127.0.0.1", server.port());
  const WireEstimateResponse resp = client.estimate(req);
  ASSERT_EQ(resp.status, static_cast<std::uint8_t>(WireStatus::kOk)) << resp.error;
  EXPECT_EQ(resp.plan_cuts, 0u);
  EXPECT_EQ(resp.has_exact, 1);
  EXPECT_NEAR(resp.exact, 1.0, 1e-12);  // even Z parity on GHZ
  EXPECT_EQ(global_pool().tasks_run(), global_tasks);
  server.stop();
}

TEST(ServerTest, StopLeavesSocketsThatReuseAClosedConnectionsFdAlone) {
  // A finished connection must leave the server's registry before its fd is
  // closed: otherwise stop() shuts down whichever socket owns that number
  // by then. Socket pairs opened after the disconnect take the lowest free
  // numbers, the freed connection fd among them.
  QcutServer server{ServerConfig{}};
  server.start();
  const int baseline = open_fd_count();
  ASSERT_GT(baseline, 0);
  {
    QcutClient client("127.0.0.1", server.port());
    (void)client.metrics();
  }
  // Wait for the server to see the hangup and close its end.
  const auto t_end = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (open_fd_count() > baseline && std::chrono::steady_clock::now() < t_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(open_fd_count(), baseline);

  constexpr int kPairs = 4;
  int pairs[kPairs][2];
  for (auto& pair : pairs) {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  }
  server.stop();
  for (auto& pair : pairs) {
    const char out = 'q';
    char in = 0;
    EXPECT_EQ(::send(pair[0], &out, 1, MSG_NOSIGNAL), 1) << "fd " << pair[0];
    EXPECT_EQ(::recv(pair[1], &in, 1, MSG_DONTWAIT), 1) << "fd " << pair[1];
    EXPECT_EQ(in, out);
    ::close(pair[0]);
    ::close(pair[1]);
  }
}

TEST(ServerTest, MalformedRequestsGetDiagnosticsAndTheConnectionSurvives) {
  QcutServer server{ServerConfig{}};
  server.start();

  QcutClient client("127.0.0.1", server.port());
  WireEstimateRequest bad = wire_workload_request();
  bad.observable = "ZZQZ";
  const WireEstimateResponse err = client.estimate(bad);
  EXPECT_EQ(err.status, static_cast<std::uint8_t>(WireStatus::kError));
  EXPECT_NE(err.error.find("'Q'"), std::string::npos) << err.error;

  bad = wire_workload_request();
  bad.backend = 99;
  const WireEstimateResponse err2 = client.estimate(bad);
  EXPECT_EQ(err2.status, static_cast<std::uint8_t>(WireStatus::kError));
  EXPECT_NE(err2.error.find("backend"), std::string::npos) << err2.error;

  // Same connection, valid request: still served.
  const WireEstimateResponse ok = client.estimate(wire_workload_request());
  EXPECT_EQ(ok.status, static_cast<std::uint8_t>(WireStatus::kOk)) << ok.error;
  server.stop();
}

TEST(ServerTest, RetiredFragmentWireValueAnswersLikeTheDefault) {
  // Wire value 2 named the retired fragment kind. It decodes to the default
  // kind 1: on a fresh server it gets the byte-identical response (bar the
  // report's timings), and after a value-1 request it is a warm eval hit on
  // that request's entry. Value 3 is still unknown.
  const auto answer_on_fresh_server = [](std::uint8_t backend) {
    QcutServer server{ServerConfig{}};
    server.start();
    QcutClient client("127.0.0.1", server.port());
    WireEstimateRequest req = wire_hwe8_request();
    req.backend = backend;
    WireEstimateResponse resp = client.estimate(req);
    server.stop();
    return resp;
  };
  WireEstimateResponse one = answer_on_fresh_server(1);
  WireEstimateResponse two = answer_on_fresh_server(2);
  ASSERT_EQ(one.status, static_cast<std::uint8_t>(WireStatus::kOk)) << one.error;
  ASSERT_EQ(two.status, static_cast<std::uint8_t>(WireStatus::kOk)) << two.error;
  EXPECT_NE(one.report_json.find("\"batched-branch\""), std::string::npos) << one.report_json;
  EXPECT_NE(two.report_json.find("\"batched-branch\""), std::string::npos) << two.report_json;
  one.report_json.clear();
  two.report_json.clear();
  EXPECT_EQ(encode_estimate_response(one), encode_estimate_response(two));

  QcutServer server{ServerConfig{}};
  server.start();
  QcutClient client("127.0.0.1", server.port());
  WireEstimateRequest req = wire_hwe8_request();
  req.backend = 1;
  const WireEstimateResponse first = client.estimate(req);
  req.backend = 2;
  const WireEstimateResponse second = client.estimate(req);
  ASSERT_EQ(second.status, static_cast<std::uint8_t>(WireStatus::kOk)) << second.error;
  EXPECT_EQ(second.eval_cache_hit, 1);
  EXPECT_EQ(second.estimate, first.estimate);

  req.backend = 3;
  const WireEstimateResponse bad = client.estimate(req);
  EXPECT_EQ(bad.status, static_cast<std::uint8_t>(WireStatus::kError));
  EXPECT_EQ(bad.code, static_cast<std::uint8_t>(ErrorCode::kInvalidRequest));
  EXPECT_NE(bad.error.find("backend"), std::string::npos) << bad.error;
  server.stop();
}

TEST(ServerTest, InvalidRequestsCarryTheTypedErrorCode) {
  QcutServer server{ServerConfig{}};
  server.start();

  QcutClient client("127.0.0.1", server.port());
  WireEstimateRequest bad = wire_workload_request();
  bad.observable = "IIII";  // identity: nothing to estimate
  const WireEstimateResponse err = client.estimate(bad);
  EXPECT_EQ(err.status, static_cast<std::uint8_t>(WireStatus::kError));
  EXPECT_EQ(err.code, static_cast<std::uint8_t>(ErrorCode::kInvalidRequest));

  const WireEstimateResponse ok = client.estimate(wire_workload_request());
  EXPECT_EQ(ok.status, static_cast<std::uint8_t>(WireStatus::kOk)) << ok.error;
  EXPECT_EQ(ok.code, static_cast<std::uint8_t>(ErrorCode::kOk));
  server.stop();
}

TEST(ServerTest, DeadlineShorterThanServiceTimeFailsFastWithDeadlineExceeded) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.debug_request_delay_ms = 400;  // service time >> deadline
  QcutServer server(cfg);
  server.start();

  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  QcutClient client("127.0.0.1", server.port());
  WireEstimateRequest req = wire_workload_request();
  req.deadline_ms = 20;
  const auto t0 = std::chrono::steady_clock::now();
  const WireEstimateResponse resp = client.estimate(req);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(WireStatus::kError));
  EXPECT_EQ(resp.code, static_cast<std::uint8_t>(ErrorCode::kDeadlineExceeded)) << resp.error;
  EXPECT_NE(resp.error.find("deadline_exceeded"), std::string::npos) << resp.error;
  // Aborted at the next poll quantum, not after the full 400 ms service time.
  EXPECT_LT(elapsed_ms, 300);
  const obs::MetricsSnapshot delta = obs::metrics_delta(before, obs::metrics_snapshot());
  EXPECT_GE(delta[obs::Counter::kDeadlinesExceeded], 1u);
  server.stop();
}

TEST(ServerTest, MaxDeadlineMsImposesACeilingWhenClientsAskForNothing) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.debug_request_delay_ms = 400;
  cfg.max_deadline_ms = 20;  // server-side ceiling
  QcutServer server(cfg);
  server.start();

  QcutClient client("127.0.0.1", server.port());
  WireEstimateRequest req = wire_workload_request();
  req.deadline_ms = 0;  // client asked for nothing → the ceiling applies
  const WireEstimateResponse resp = client.estimate(req);
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(WireStatus::kError));
  EXPECT_EQ(resp.code, static_cast<std::uint8_t>(ErrorCode::kDeadlineExceeded)) << resp.error;

  // And a client asking for MORE than the ceiling is clamped down to it.
  req.deadline_ms = 60000;
  const WireEstimateResponse clamped = client.estimate(req);
  EXPECT_EQ(clamped.code, static_cast<std::uint8_t>(ErrorCode::kDeadlineExceeded))
      << clamped.error;
  server.stop();
}

// Satellite of the drain design: SIGTERM maps to drain(), so this is the
// signal path minus the signal. Every accepted connection must get a real
// response — completed, cancelled, or a retryable rejection — and never a
// silently dropped socket.
TEST(ServerTest, DrainUnderLoadAnswersEveryAcceptedRequest) {
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.debug_request_delay_ms = 2000;  // far beyond the drain budget
  QcutServer server(cfg);
  server.start();

  constexpr int kClients = 4;
  std::vector<WireEstimateResponse> resps(kClients);
  std::vector<int> transport_errors(kClients, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        QcutClient client("127.0.0.1", server.port());
        WireEstimateRequest req = wire_workload_request();
        req.seed = 7000 + static_cast<std::uint64_t>(t);  // distinct: no coalescing
        resps[static_cast<std::size_t>(t)] = client.estimate(req);
      } catch (const Error&) {
        transport_errors[static_cast<std::size_t>(t)] = 1;
      }
    });
  }

  // Wait until all four are actually in flight before pulling the plug.
  const auto t_arm = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (metrics_gauge(server.metrics_text(), "qcut_svc_inflight") <
             static_cast<std::uint64_t>(kClients) &&
         std::chrono::steady_clock::now() < t_arm) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(metrics_gauge(server.metrics_text(), "qcut_svc_inflight"),
            static_cast<std::uint64_t>(kClients));

  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  const auto t0 = std::chrono::steady_clock::now();
  const bool clean = server.drain(200);  // budget << the 2 s service time
  const auto drain_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  for (auto& t : threads) {
    t.join();
  }

  // drain() came back well inside budget + settle, not after 2 s of delay.
  EXPECT_TRUE(clean);
  EXPECT_LT(drain_ms, 1500);

  int cancelled = 0;
  for (int t = 0; t < kClients; ++t) {
    // Never a dropped socket: each client got a decoded response.
    EXPECT_EQ(transport_errors[static_cast<std::size_t>(t)], 0) << "client " << t;
    const WireEstimateResponse& r = resps[static_cast<std::size_t>(t)];
    if (r.code == static_cast<std::uint8_t>(ErrorCode::kCancelled)) {
      ++cancelled;
      EXPECT_EQ(r.status, static_cast<std::uint8_t>(WireStatus::kError));
    } else {
      // The only other legal outcomes: finished in time or retryable reject.
      EXPECT_TRUE(r.status == static_cast<std::uint8_t>(WireStatus::kOk) ||
                  r.status == static_cast<std::uint8_t>(WireStatus::kRetryAfter))
          << r.error;
    }
  }
  EXPECT_GE(cancelled, 1);  // the budget was unreachable, so some were cut short
  const obs::MetricsSnapshot delta = obs::metrics_delta(before, obs::metrics_snapshot());
  EXPECT_GE(delta[obs::Counter::kCancellations], 1u);

  // Post-drain the server is stopped and the draining gauge reads 1.
  EXPECT_NE(server.metrics_text().find("qcut_svc_draining 1"), std::string::npos);
}

}  // namespace
}  // namespace svc
}  // namespace qcut
