// Fragment-local execution: split_term structure, the exact backend's
// per-term probabilities against the spliced whole-circuit oracle (the
// `all_prob_one` law) on every protocol, and the >20-qubit planned run that
// only the fragment path can execute.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "exact_oracles.hpp"
#include "qcut/core/cut_executor.hpp"
#include "qcut/cut/circuit_cutter.hpp"
#include "qcut/cut/fragment.hpp"
#include "qcut/cut/gate_cut.hpp"
#include "qcut/cut/harada_cut.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/cut/peng_cut.hpp"
#include "qcut/exec/backend.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/plan/circuit_graph.hpp"
#include "qcut/plan/planned_executor.hpp"
#include "qcut/qpd/estimator.hpp"
#include "qcut/sim/qasm_import.hpp"
#include "qcut/sim/statevector.hpp"
#include "test_helpers.hpp"

namespace qcut {
namespace {

using qcut::testing::BenchShape;
using qcut::testing::fragment_term_prob_one_baseline;
using qcut::testing::ghz_line;
using qcut::testing::random_unitary_circuit;
using qcut::testing::term_prob_one;

std::string all_z(int n) { return std::string(static_cast<std::size_t>(n), 'Z'); }

TEST(FragmentSplit, GhzSingleCutSplitsIntoSenderAndReceiver) {
  // ghz_line(4): h(0), cx(0,1), cx(1,2), cx(2,3); cutting wire 1 after op 2
  // separates {0, 1} from {2, 3, receiver}.
  const Circuit circ = ghz_line(4);
  const HaradaCut proto;
  const Qpd qpd = cut_circuit(circ, CutPoint{2, 1}, proto, "ZZZZ");

  for (const QpdTerm& term : qpd.terms()) {
    const FragmentSplit split = split_term(term);
    ASSERT_EQ(split.fragments.size(), 2u) << term.label;
    EXPECT_EQ(split.max_width, 3);  // receiver side: wires 2, 3 + receiver 4
    EXPECT_EQ(split.fragments[0].wires, (std::vector<int>{0, 1}));
    EXPECT_EQ(split.fragments[1].wires, (std::vector<int>{2, 3, 4}));
    // The gadget's one classical bit crosses the cut: measured on the sender,
    // read by the receiver's conditional prepare.
    ASSERT_EQ(split.cross_cbits.size(), 1u);
    EXPECT_EQ(split.fragments[0].writes, split.cross_cbits);
    EXPECT_EQ(split.fragments[1].reads, split.cross_cbits);
    // Observable bits: Z on wire 0 stays on the sender; Z on original qubits
    // 1, 2, 3 is measured on their final carriers (receiver wire 4, wires 2
    // and 3), all in the receiver fragment.
    EXPECT_EQ(split.fragments[0].estimate_cbits.size(), 1u);
    EXPECT_EQ(split.fragments[1].estimate_cbits.size(), 3u);
  }
}

TEST(FragmentSplit, EntangledResourceMergesFragments) {
  // NmeCut's teleport gadgets splice a two-qubit |Φk⟩ initialize spanning the
  // sender helper and the receiver wire: shared entanglement cannot be
  // simulated by classical message passing, so those terms must collapse to a
  // single fragment (the split stays correct, just not narrower).
  const Circuit circ = ghz_line(3);
  const NmeCut proto(0.6);
  const Qpd qpd = cut_circuit(circ, CutPoint{2, 1}, proto, "ZZZ");

  bool saw_merged = false;
  for (const QpdTerm& term : qpd.terms()) {
    const FragmentSplit split = split_term(term);
    if (split.fragments.size() == 1) {
      saw_merged = true;
    }
    // Either way the probability law must match the spliced enumeration.
    EXPECT_NEAR(fragment_term_prob_one(split), term_prob_one(term), 1e-12) << term.label;
  }
  EXPECT_TRUE(saw_merged);
}

/// The planned QPD of `circ` under `pcfg` for the all-Z observable.
Qpd planned_qpd(const Circuit& circ, const PlannerConfig& pcfg) {
  const PlannedExecutor exec(circ, CutPlanner(circ, pcfg).plan());
  return exec.build_qpd(Observable::z_all(circ.n_qubits()));
}

Circuit hwe_ansatz_8() {
  return import_qasm_file(std::string(QCUT_QASM_CORPUS_DIR) + "/hwe_ansatz_8.qasm");
}

/// Every term's P(−1) from the exact backend matches the spliced
/// whole-circuit oracle to 1e-12.
void expect_matches_oracle(const Qpd& qpd, const std::string& what) {
  const BatchedBranchBackend backend(qpd);
  const std::vector<Real> got = backend.cache().all_prob_one();
  ASSERT_EQ(got.size(), qpd.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], term_prob_one(qpd.terms()[i]), 1e-12)
        << what << " term " << i << " (" << qpd.terms()[i].label << ")";
  }
}

TEST(BatchedBranchBackend, MatchesSplicedOracleOnEveryProtocol) {
  // Every protocol the estimator can run, on the unplanned single-wire
  // experiment (Haar-random input, each Pauli observable) and cut inside a
  // 4-qubit GHZ line; the ZZ gate cut through cut_cz_gate and cut_zz_gate.
  const std::vector<std::pair<std::string, std::shared_ptr<const WireCutProtocol>>> wire = {
      {"peng", make_wire_protocol({ProtocolId::kPeng, 0.0})},
      {"harada", make_wire_protocol({ProtocolId::kHarada, 0.0})},
      {"teleport", make_wire_protocol({ProtocolId::kTeleport, 0.0})},
      {"nme f=0.6", std::make_shared<NmeCut>(NmeCut::from_overlap(0.6))},
      {"nme f=0.9", std::make_shared<NmeCut>(NmeCut::from_overlap(0.9))},
      {"nme f=1.0", std::make_shared<NmeCut>(NmeCut::from_overlap(1.0))},
      {"distill k=0.5", make_wire_protocol({ProtocolId::kDistill, 0.5})},
      {"mixed qI=0.9", make_wire_protocol({ProtocolId::kMixedNme, 0.9})},
  };
  Rng rng(23);
  for (const auto& [name, proto] : wire) {
    for (const char obs : {'X', 'Y', 'Z'}) {
      const CutInput input{haar_unitary(2, rng), obs};
      expect_matches_oracle(proto->build_qpd(input), name + " single wire " + obs);
    }
    expect_matches_oracle(cut_circuit(ghz_line(4), CutPoint{2, 1}, *proto, all_z(4)),
                          name + " in ghz_line(4)");
  }

  Circuit base(3, 0);
  base.h(0).h(1).ry(2, 0.3).cx(1, 2);
  for (const char* obs : {"ZZZ", "XXI", "YXZ"}) {
    expect_matches_oracle(cut_cz_gate(base, /*pos=*/2, 0, 1, obs), std::string("cz ") + obs);
    expect_matches_oracle(cut_zz_gate(base, /*pos=*/4, 0, 2, 0.37, obs),
                          std::string("zz(0.37) ") + obs);
  }
}

TEST(BatchedBranchBackend, MatchesSplicedOracleOnRandomCutCircuits) {
  // Property test: on random circuits with 1–2 random wire cuts, and on the
  // planned 8-qubit QPDs of the narrow benchmark workloads, the exact
  // backend and the spliced oracle must agree on every term's exact
  // −1-outcome probability to 1e-12.
  Rng rng(101);
  const HaradaCut harada;
  const PengCut peng;
  int cut_instances = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 4 + static_cast<int>(rng.uniform_u64(3));  // 4..6
    const Circuit circ = random_unitary_circuit(n, 2 * n, rng);
    const CircuitGraph graph(circ);
    if (graph.candidates().empty()) {
      continue;
    }
    const std::size_t n_cuts = 1 + rng.uniform_u64(2);  // 1..2
    std::vector<CutSite> sites;
    std::vector<const CutProtocol*> protos;
    for (std::size_t j = 0; j < n_cuts; ++j) {
      const auto& cand = graph.candidates();
      const CutPoint p = cand[rng.uniform_u64(cand.size())];
      bool dup = false;
      for (const CutSite& q : sites) {
        dup = dup || (q.point == p);
      }
      if (dup) {
        continue;
      }
      sites.push_back(CutSite::wire(p));
      protos.push_back(rng.bernoulli(0.5) ? static_cast<const CutProtocol*>(&harada)
                                          : static_cast<const CutProtocol*>(&peng));
    }
    const Qpd qpd = cut_circuit_sites(circ, sites, protos, all_z(n));
    ++cut_instances;
    expect_matches_oracle(qpd, "trial " + std::to_string(trial));
  }
  EXPECT_GE(cut_instances, 8);

  PlannerConfig ghz_cap3;
  ghz_cap3.max_fragment_width = 3;
  expect_matches_oracle(planned_qpd(ghz_line(8), ghz_cap3), "ghz_8 cap 3");
  PlannerConfig hwe_cap4;
  hwe_cap4.max_fragment_width = 4;
  expect_matches_oracle(planned_qpd(hwe_ansatz_8(), hwe_cap4), "hwe_ansatz_8 cap 4");
  // The paper's NME setting: cap 6, two pairs at overlap 0.9.
  PlannerConfig nme;
  nme.max_fragment_width = 6;
  nme.pair_budget = 2;
  nme.resource_overlap = 0.9;
  expect_matches_oracle(planned_qpd(hwe_ansatz_8(), nme), "hwe_ansatz_8 nme cap 6");
}

TEST(BatchedBranchBackend, UncutTermIsSingleFragmentPerComponent) {
  // Without cuts the interaction graph of a GHZ line is one component: the
  // fragment evaluation degenerates to the spliced enumeration.
  const Qpd qpd = uncut_qpd(ghz_line(5), all_z(5));
  const BatchedBranchBackend backend(qpd);
  EXPECT_NEAR(backend.cache().prob_one(0), term_prob_one(qpd.terms()[0]), 1e-14);
}

TEST(BatchedBranchBackend, RejectsFragmentsAboveTheStatevectorCap) {
  // One uncut fragment a wire wider than the engine cap: the width check
  // throws before any state is allocated.
  const int n = Statevector::kMaxQubits + 1;
  const Qpd qpd = uncut_qpd(ghz_line(n), all_z(n));
  const BatchedBranchBackend backend(qpd);
  EXPECT_THROW(backend.cache().prob_one(0), Error);
}

TEST(BatchedBranchBackend, FusesOnlyTheFragmentsWideEnoughForFusionToPay) {
  // ghz_line cut on wire 1 after op 2: a 2-qubit sender {0, 1} and a
  // receiver of kMinFusionWidth wires ({2, .., n - 1} plus the receiver
  // wire). Only the receiver passes the width rule, so the fusion counters
  // see exactly its ops, and every P(-1) matches the all-unfused evaluation.
  const int n = kMinFusionWidth + 1;
  const Qpd qpd = cut_circuit(ghz_line(n), CutPoint{2, 1}, HaradaCut(), all_z(n));
  std::uint64_t wide_ops = 0;
  std::vector<Real> unfused;
  for (const QpdTerm& term : qpd.terms()) {
    const FragmentSplit split = split_term(term);
    ASSERT_EQ(split.fragments.size(), 2u) << term.label;
    ASSERT_FALSE(fusion_pays(split.fragments[0].circuit.n_qubits())) << term.label;
    ASSERT_TRUE(fusion_pays(split.fragments[1].circuit.n_qubits())) << term.label;
    wide_ops += split.fragments[1].circuit.size();
    unfused.push_back(fragment_term_prob_one(split));
  }

  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  const BatchedBranchBackend backend(qpd);
  const std::vector<Real> got = backend.cache().all_prob_one();
  const obs::MetricsSnapshot d = obs::metrics_delta(before, obs::metrics_snapshot());
  obs::set_metrics_enabled(was_enabled);

  EXPECT_EQ(d[obs::Counter::kFusionOpsBefore], wide_ops);
  ASSERT_EQ(got.size(), unfused.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], unfused[i], 1e-12) << qpd.terms()[i].label;
  }
}

TEST(BatchedBranchBackend, WideEntangledCutFailsWithClearError) {
  // An NME cut on a circuit wider than the statevector cap: the teleport
  // terms merge both sides (plus the helper wire) into one fragment wider
  // than Statevector::kMaxQubits, so the backend fails with the width-cap
  // Error before it evaluates anything (wide runs need entanglement-free
  // plans), while the gadget's measure-flip term on its own still splits
  // and computes.
  const int n = Statevector::kMaxQubits + 4;  // merged fragment: n + 1 wires
  const Circuit circ = ghz_line(n);
  const NmeCut nme(0.6);
  const Qpd qpd = cut_circuit(circ, CutPoint{n / 2, n / 2 - 1}, nme, all_z(n));
  ASSERT_EQ(qpd.size(), 3u);
  const BatchedBranchBackend backend(qpd);
  try {
    backend.prepare();
    ADD_FAILURE() << "a merged fragment above the cap was evaluated";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the statevector cap"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(backend.cache().prob_one(2), Error);  // the next call fails the same way
  const Real p = fragment_term_prob_one(split_term(qpd.terms()[2]));  // measure-flip
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0 + 1e-12);
}

TEST(BatchedBranchBackend, ZeroProbabilityBranchYieldsFiniteProbabilities) {
  // x(0) puts the cut wire in |1⟩: the measure-flip gadget's measurement has
  // p(outcome 0) = 0 exactly, and peng's prep branches discard a
  // deterministic bit. No path may renormalize the dead branch into NaNs.
  Circuit c(2, 0);
  c.x(0).cx(0, 1);
  const PengCut peng;
  const Qpd qpd = cut_circuit(c, CutPoint{1, 0}, peng, "ZZ");
  const BatchedBranchBackend backend(qpd);
  for (std::size_t i = 0; i < qpd.size(); ++i) {
    const Real p_frag = backend.cache().prob_one(i);
    const Real p_ref = term_prob_one(qpd.terms()[i]);
    EXPECT_TRUE(std::isfinite(p_frag)) << qpd.terms()[i].label;
    EXPECT_TRUE(std::isfinite(p_ref)) << qpd.terms()[i].label;
    EXPECT_NEAR(p_frag, p_ref, 1e-12);
    EXPECT_GE(p_frag, 0.0);
    EXPECT_LE(p_frag, 1.0 + 1e-12);
  }
  CutRunConfig cfg;
  cfg.shots = 2000;
  const CutRunResult res = run_qpd_estimate(qpd, uncut_circuit_expectation(c, "ZZ"), cfg);
  EXPECT_TRUE(std::isfinite(res.estimate));
}

TEST(BatchedBranchBackend, WideGhzPlannedRunExecutesFragmentLocally) {
  // The acceptance scenario: a 30-qubit GHZ line — wider than the statevector
  // cap (Statevector::kMaxQubits = 28) — planned into ≤16-qubit fragments and
  // estimated end-to-end at the predicted κ²/ε² budget.
  // ⟨Z^⊗30⟩ on GHZ is exactly 1 (even qubit count), so the estimate must land
  // within 3ε of 1 (estimator std ≤ κ/√N = ε at the predicted budget).
  const int n = 30;
  const Circuit circ = ghz_line(n);
  ASSERT_GT(n, Statevector::kMaxQubits);

  PlannerConfig pcfg;
  pcfg.max_fragment_width = 16;
  pcfg.pair_budget = 0;  // entanglement-free protocols → fully splittable terms
  pcfg.target_accuracy = 0.1;

  CutRunConfig rcfg;
  rcfg.shots = 0;  // planner-predicted budget
  rcfg.seed = 20240731;

  const PlannedRunResult out = plan_and_run(circ, Observable::z_all(n), pcfg, rcfg);
  EXPECT_LE(out.plan->max_width, 16);
  ASSERT_FALSE(out.plan->cuts.empty());
  for (const PlannedCut& pc : out.plan->cuts) {
    EXPECT_FALSE(pc.entangled);
  }
  // No monolithic reference exists this wide; the analytic value stands in.
  EXPECT_FALSE(out.run.has_exact);
  EXPECT_TRUE(std::isnan(out.run.exact));
  EXPECT_GE(out.run.details.shots_used, static_cast<std::uint64_t>(out.plan->predicted_shots));
  EXPECT_NEAR(out.run.estimate, 1.0, 3.0 * pcfg.target_accuracy);
}

TEST(BatchedBranchBackend, TwentyFourQubitSingleFragmentRunsEndToEnd) {
  // Acceptance for the widened engine cap: a 24-qubit GHZ line plans with
  // ZERO cuts under the defaulted width cap (Statevector::kMaxQubits = 28)
  // and executes end-to-end through PlannedExecutor as a single fragment of
  // 2^24 amplitudes. ⟨Z^⊗24⟩ on GHZ: the all-0 / all-1 outcomes both have
  // even parity, so the estimate is exactly 1 at any shot count.
  const int n = 24;
  ASSERT_LE(n, Statevector::kMaxQubits);
  PlannerConfig pcfg;  // defaulted width cap = engine cap
  pcfg.pair_budget = 0;
  CutRunConfig rcfg;
  rcfg.shots = 64;
  rcfg.seed = 7;
  const PlannedRunResult out = plan_and_run(ghz_line(n), Observable::z_all(n), pcfg, rcfg);
  EXPECT_TRUE(out.plan->cuts.empty());
  EXPECT_EQ(out.plan->max_width, n);
  EXPECT_NEAR(out.run.estimate, 1.0, 1e-9);
}

TEST(FragmentParallel, ManyCrossBitRecombinationIsExact) {
  // 14 single-qubit fragments chained by classical feed-forward: 13 cross
  // bits → 2^13 sigma assignments, well past the recombination sweep's fixed
  // chunk size (1024). The chain-rule sweep sums its per-chunk partials in
  // chunk order.
  const int n = 14;
  Circuit c(n, n);
  for (int q = 0; q < n; ++q) {
    c.h(q);
    if (q > 0) {
      c.x_if(q - 1, q);
    }
    c.measure(q, q);
  }
  QpdTerm term;
  term.coefficient = 1.0;
  term.circuit = c;
  term.estimate_cbits = {n - 1};
  term.label = "feed-forward chain";
  const FragmentSplit split = split_term(term);
  ASSERT_EQ(split.fragments.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(split.cross_cbits.size(), static_cast<std::size_t>(n - 1));

  const Real p = fragment_term_prob_one(split);
  // h then (possibly) X still measures 1 with probability 1/2: the chain's
  // final bit is unbiased.
  EXPECT_NEAR(p, 0.5, 1e-12);
  EXPECT_NEAR(fragment_term_prob_one_baseline(split), p, 1e-12);
}

TEST(FragmentParallel, PoolSizeBitIdentity) {
  // Mirrors test_exec_engine's pool-size law for the fragment fast path: the
  // per-term probabilities, forced across the pool's workers, AND the
  // end-to-end engine estimates must be byte-identical for pools of size 1,
  // 2, and 8 (and the serial sweep) — parallelism must never change a bit.
  // GHZ-24 at cap 9 has enough work for prepare() to fan out.
  const Circuit circ = ghz_line(24);
  PlannerConfig pcfg;
  pcfg.max_fragment_width = 9;
  pcfg.pair_budget = 0;
  const CutPlanner planner(circ, pcfg);
  const PlannedExecutor exec(circ, planner.plan());
  const Qpd qpd = exec.build_qpd(Observable::z_all(24));
  ASSERT_GE(qpd.size(), 4u);
  ASSERT_TRUE(fanout_pays(FragmentVariants(qpd).work())) << FragmentVariants(qpd).work();

  std::vector<Real> serial;
  {
    ThreadPool one(1);
    const qcut::testing::ScopedPool scope(one);
    const BatchedBranchBackend backend(qpd);
    serial = backend.cache().all_prob_one();
  }
  std::vector<Real> estimates;
  for (const std::size_t n_threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(n_threads);
    const qcut::testing::ScopedPool scope(pool);
    const BatchedBranchBackend backend(qpd);
    backend.prepare();  // the one fan-out, on this pool
    const std::vector<Real> probs = backend.cache().all_prob_one();
    ASSERT_EQ(probs.size(), serial.size());
    for (std::size_t i = 0; i < probs.size(); ++i) {
      EXPECT_EQ(probs[i], serial[i]) << "pool " << n_threads << " term " << i;
    }
    const auto plan = ShotPlan::allocated(qpd, 50000, AllocRule::kProportional);
    estimates.push_back(run_plan(qpd, plan, backend, /*seed=*/20260730).estimate);
  }
  EXPECT_EQ(estimates[0], estimates[1]);
  EXPECT_EQ(estimates[0], estimates[2]);
}

TEST(FanoutRule, PaysFromTheThresholdUp) {
  // The rule's boundary: kMinFanoutWork itself fans out, the double just
  // below it does not.
  static_assert(fanout_pays(kMinFanoutWork));
  static_assert(!fanout_pays(0.0));
  EXPECT_TRUE(fanout_pays(kMinFanoutWork));
  EXPECT_TRUE(fanout_pays(2 * kMinFanoutWork));
  EXPECT_FALSE(fanout_pays(std::nextafter(kMinFanoutWork, 0.0)));
  EXPECT_FALSE(fanout_pays(0.0));
  // Work counts ops · 2^width · 2^reads once per variant: one 3-qubit
  // fragment of 4 ops that reads nothing is 4 · 2^3.
  Circuit c(3, 3);
  c.h(0).cx(0, 1).cx(1, 2).measure(2, 2);
  QpdTerm term;
  term.coefficient = 1.0;
  term.circuit = c;
  term.estimate_cbits = {2};
  Qpd qpd;
  qpd.add(term);
  qpd.add(term);
  EXPECT_EQ(FragmentVariants(qpd).work(), 2 * 4 * 8.0);
}

/// The factored path against the spliced one, on every term of `spliced`
/// (a cutter QPD, so it carries its layout): each fragment the variants
/// build equals the fragment split_term cuts from the spliced term, op for
/// op (kind, qubits, cbit, payload address), and every factored P(−1)
/// equals split_term → fusion where it pays → fragment_term_prob_one on the
/// spliced term, bit for bit.
void expect_variants_match_spliced(const Qpd& spliced, const std::string& what) {
  ASSERT_NE(spliced.layout(), nullptr) << what;
  const Qpd factored = cut_qpd(spliced.layout(), /*splice=*/false);
  ASSERT_FALSE(factored.has_term_circuits()) << what;
  ASSERT_EQ(factored.size(), spliced.size()) << what;
  const FragmentVariants variants(factored);
  const std::vector<Real> got = exact_term_prob_one(factored);
  std::size_t pairs = 0;
  for (std::size_t t = 0; t < spliced.size(); ++t) {
    const QpdTerm& term = spliced.terms()[t];
    EXPECT_EQ(factored.terms()[t].coefficient, term.coefficient) << what;
    EXPECT_EQ(factored.terms()[t].estimate_cbits, term.estimate_cbits) << what;
    EXPECT_EQ(factored.terms()[t].label, term.label) << what;
    FragmentSplit want = split_term(term);
    const FragmentSplit have = variants.split(t);
    EXPECT_EQ(have.max_width, want.max_width) << what << " " << term.label;
    EXPECT_EQ(have.cross_cbits, want.cross_cbits) << what << " " << term.label;
    ASSERT_EQ(have.fragments.size(), want.fragments.size()) << what << " " << term.label;
    pairs += want.fragments.size();
    for (std::size_t f = 0; f < want.fragments.size(); ++f) {
      const TermFragment& a = have.fragments[f];
      const TermFragment& b = want.fragments[f];
      const std::string where = what + " " + term.label + " fragment " + std::to_string(f);
      EXPECT_EQ(a.wires, b.wires) << where;
      EXPECT_EQ(a.reads, b.reads) << where;
      EXPECT_EQ(a.writes, b.writes) << where;
      EXPECT_EQ(a.estimate_cbits, b.estimate_cbits) << where;
      EXPECT_EQ(a.cond_suffix_begin, b.cond_suffix_begin) << where;
      EXPECT_EQ(a.circuit.n_qubits(), b.circuit.n_qubits()) << where;
      EXPECT_EQ(a.circuit.n_cbits(), b.circuit.n_cbits()) << where;
      ASSERT_EQ(a.circuit.size(), b.circuit.size()) << where;
      for (std::size_t k = 0; k < a.circuit.size(); ++k) {
        const Operation& x = a.circuit.ops()[k];
        const Operation& y = b.circuit.ops()[k];
        EXPECT_EQ(x.kind, y.kind) << where << " op " << k;
        EXPECT_TRUE(std::equal(x.qubits.begin(), x.qubits.end(), y.qubits.begin(),
                               y.qubits.end()))
            << where << " op " << k;
        EXPECT_EQ(x.cbit, y.cbit) << where << " op " << k;
        EXPECT_EQ(&x.matrix(), &y.matrix()) << where << " op " << k;
        EXPECT_EQ(&x.init_state(), &y.init_state()) << where << " op " << k;
      }
    }
    for (TermFragment& tf : want.fragments) {
      if (fusion_pays(tf.circuit.n_qubits())) {
        fuse_fragment(tf);
      }
    }
    const Real oracle = fragment_term_prob_one(want);
    EXPECT_EQ(std::memcmp(&got[t], &oracle, sizeof(Real)), 0)
        << what << " " << term.label << ": " << got[t] << " vs " << oracle;
  }
  EXPECT_LE(variants.size(), pairs) << what;
}

Qpd planned_pin_qpd(BenchShape shape, int n, int cap, int pairs, Real overlap) {
  const Circuit circ =
      strip_trailing_measurements(import_qasm(qcut::testing::bench_shape_qasm(shape)));
  PlannerConfig pcfg;
  pcfg.max_fragment_width = cap;
  pcfg.pair_budget = pairs;
  pcfg.resource_overlap = overlap;
  const PlannedExecutor exec(circ, CutPlanner(circ, pcfg).plan());
  return exec.build_qpd(Observable::z_all(n));
}

TEST(FragmentVariants, MatchTheSplicedSplitOnPlannedAndHandCutQpds) {
  // The benchmark's six request classes, planned.
  expect_variants_match_spliced(planned_pin_qpd(BenchShape::kGhz30, 30, 16, 0, 0.5), "ghz30");
  expect_variants_match_spliced(planned_pin_qpd(BenchShape::kBrick30, 30, 16, 0, 0.5),
                                "brick30");
  expect_variants_match_spliced(planned_pin_qpd(BenchShape::kGhz8, 8, 3, 0, 0.5), "ghz8 cap 3");
  expect_variants_match_spliced(planned_pin_qpd(BenchShape::kHwe8, 8, 4, 0, 0.5), "hwe8 cap 4");
  expect_variants_match_spliced(planned_pin_qpd(BenchShape::kHwe8, 8, 5, 0, 0.5), "hwe8 cap 5");
  expect_variants_match_spliced(planned_pin_qpd(BenchShape::kHwe8, 8, 6, 2, 0.9),
                                "hwe8 cap 6 nme");

  // Two gate cuts and a wire cut in one plan: CZs on (0,1), (2,3) and
  // (4,5) of a 6-qubit chain, the middle wire cut between them.
  Circuit chain(6, 0);
  for (int q = 0; q < 6; ++q) {
    chain.h(q);
  }
  chain.cz(0, 1).cx(1, 2).cz(2, 3).cx(3, 4).cz(4, 5).ry(3, 0.3);
  std::vector<std::shared_ptr<const CutProtocol>> owned;
  std::vector<CutSite> sites;
  for (const std::size_t op : {std::size_t{6}, std::size_t{10}}) {
    const ZzFactorization zz = zz_factor_diagonal(chain.ops()[op].matrix());
    ASSERT_TRUE(zz.ok);
    owned.push_back(std::make_shared<ZzGateCut>(zz.theta, zz.local_a, zz.local_b));
    sites.push_back(CutSite::gate(op));
  }
  owned.push_back(make_wire_protocol({ProtocolId::kHarada, 0.0}));
  sites.push_back(CutSite::wire({8, 2}));
  std::vector<const CutProtocol*> protos;
  for (const auto& p : owned) {
    protos.push_back(p.get());
  }
  expect_variants_match_spliced(cut_circuit_sites(chain, sites, protos, "ZZZZZZ"),
                                "two gate cuts and a wire cut");
  expect_variants_match_spliced(cut_circuit_sites(chain, sites, protos, "XIYZIZ"),
                                "two gate cuts and a wire cut, mixed observable");

  // Entangled-resource wire cuts, two per circuit: NME, virtual
  // distillation and the mixed-resource teleport, each next to harada.
  const Circuit ghz = ghz_line(6);
  const std::vector<CutSite> wire_sites{CutSite::wire({2, 1}), CutSite::wire({4, 3})};
  const auto harada = make_wire_protocol({ProtocolId::kHarada, 0.0});
  for (const auto& [name, proto] :
       std::vector<std::pair<std::string, std::shared_ptr<const WireCutProtocol>>>{
           {"nme f=0.9", std::make_shared<NmeCut>(NmeCut::from_overlap(0.9))},
           {"distill k=0.5", make_wire_protocol({ProtocolId::kDistill, 0.5})},
           {"mixed qI=0.9", make_wire_protocol({ProtocolId::kMixedNme, 0.9})}}) {
    expect_variants_match_spliced(
        cut_circuit_sites(ghz, wire_sites, {proto.get(), harada.get()}, all_z(6)), name);
  }
}

TEST(FragmentVariants, MatchTheSplicedSplitOnRandomMultiCutCircuits) {
  Rng rng(419);
  const std::vector<std::shared_ptr<const WireCutProtocol>> protos = {
      make_wire_protocol({ProtocolId::kHarada, 0.0}),
      make_wire_protocol({ProtocolId::kPeng, 0.0}),
      make_wire_protocol({ProtocolId::kTeleport, 0.0}),
      std::make_shared<NmeCut>(NmeCut::from_overlap(0.6)),
  };
  int checked = 0;
  for (int trial = 0; trial < 16; ++trial) {
    const int n = 4 + static_cast<int>(rng.uniform_u64(3));  // 4..6
    const Circuit circ = random_unitary_circuit(n, 3 * n, rng);
    const CircuitGraph graph(circ);
    const auto& cand = graph.candidates();
    if (cand.size() < 2) {
      continue;
    }
    std::vector<CutSite> sites;
    std::vector<const CutProtocol*> chosen;
    const std::size_t n_cuts = 2 + rng.uniform_u64(2);  // 2..3
    for (std::size_t j = 0; j < n_cuts; ++j) {
      const CutPoint p = cand[rng.uniform_u64(cand.size())];
      if (std::any_of(sites.begin(), sites.end(),
                      [&p](const CutSite& q) { return q.point == p; })) {
        continue;
      }
      sites.push_back(CutSite::wire(p));
      chosen.push_back(protos[rng.uniform_u64(protos.size())].get());
    }
    expect_variants_match_spliced(cut_circuit_sites(circ, sites, chosen, all_z(n)),
                                  "trial " + std::to_string(trial));
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

TEST(FragmentVariants, FactoredQpdCarriesNoCircuitsAndOnlyTheExactBackendRunsIt) {
  const Qpd spliced = cut_circuit(ghz_line(4), CutPoint{2, 1}, HaradaCut(), all_z(4));
  const Qpd factored = cut_qpd(spliced.layout(), /*splice=*/false);
  for (const QpdTerm& term : factored.terms()) {
    EXPECT_TRUE(term.circuit.ops().empty());
    EXPECT_THROW(split_term(term), Error);
  }
  EXPECT_THROW(SerialShotBackend{factored}, Error);
  EXPECT_THROW(make_backend(BackendKind::kSerialShot, factored), Error);
  const std::vector<Real> got = BatchedBranchBackend(factored).cache().all_prob_one();
  for (std::size_t t = 0; t < spliced.size(); ++t) {
    EXPECT_NEAR(got[t], term_prob_one(spliced.terms()[t]), 1e-12) << spliced.terms()[t].label;
  }
}

TEST(FragmentParallel, OptimizedEvaluatorMatchesBaselineOnRandomCutCircuits) {
  // The prefix-sharing + trailing-measure-fold evaluator vs. the serial
  // oracle, on random circuits with random cuts: 1e-12 per term.
  Rng rng(211);
  const HaradaCut harada;
  const PengCut peng;
  int checked = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 4 + static_cast<int>(rng.uniform_u64(3));
    const Circuit circ = random_unitary_circuit(n, 2 * n, rng);
    const CircuitGraph graph(circ);
    if (graph.candidates().empty()) {
      continue;
    }
    const auto& cand = graph.candidates();
    const CutPoint p = cand[rng.uniform_u64(cand.size())];
    const WireCutProtocol* proto = rng.bernoulli(0.5)
                                       ? static_cast<const WireCutProtocol*>(&harada)
                                       : static_cast<const WireCutProtocol*>(&peng);
    const Qpd qpd = cut_circuit(circ, p, *proto, all_z(n));
    for (const QpdTerm& term : qpd.terms()) {
      const FragmentSplit split = split_term(term);
      const Real base = fragment_term_prob_one_baseline(split);
      const Real opt = fragment_term_prob_one(split);
      EXPECT_NEAR(opt, base, 1e-12) << "trial " << trial << " " << term.label;
      ++checked;
    }
  }
  EXPECT_GE(checked, 12);
}

/// A random term circuit in fragment form: two 2-qubit sender fragments and
/// a 3-qubit receiver. Each sender measures a cross bit mid-circuit, keeps
/// evolving and resets a wire; the receiver reads both cross bits through
/// conditional gates, with its own mid-circuit measure before the reads and
/// a reset between them. The estimate is the parity of every fragment's
/// final measurements.
QpdTerm random_two_read_term(Rng& rng) {
  // Wires 0-1 and 2-3 are the senders, 4-6 the receiver. Cbits 0-1 cross the
  // cut, 2-3 hold mid-circuit outcomes nobody reads, 4-10 the final measures.
  Circuit c(7, 11);
  const auto scramble = [&](int q0, int width) {
    for (int d = 0; d < 3; ++d) {
      if (width >= 2 && rng.bernoulli(0.5)) {
        const int q = q0 + static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(width - 1)));
        c.gate(haar_unitary(4, rng), {q, q + 1}, "U2");
      } else {
        const int q = q0 + static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(width)));
        c.gate(haar_unitary(2, rng), {q}, "U1");
      }
    }
  };
  for (int s = 0; s < 2; ++s) {
    const int q0 = 2 * s;
    scramble(q0, 2);
    c.measure(q0 + static_cast<int>(rng.uniform_u64(2)), s);  // the cross bit
    scramble(q0, 2);
    c.reset(q0 + static_cast<int>(rng.uniform_u64(2)));
    scramble(q0, 2);
  }
  scramble(4, 3);
  c.measure(4 + static_cast<int>(rng.uniform_u64(3)), 2);
  scramble(4, 3);
  c.gate_if(0, haar_unitary(2, rng), {4 + static_cast<int>(rng.uniform_u64(3))});
  scramble(4, 3);
  c.reset(4 + static_cast<int>(rng.uniform_u64(3)));
  c.measure(4 + static_cast<int>(rng.uniform_u64(3)), 3);
  c.gate_if(1, haar_unitary(2, rng), {4 + static_cast<int>(rng.uniform_u64(3))});
  scramble(4, 3);
  QpdTerm term;
  term.coefficient = 1.0;
  term.label = "random two-read term";
  for (int q = 0; q < 7; ++q) {
    c.measure(q, 4 + q);
    term.estimate_cbits.push_back(4 + q);
  }
  term.circuit = std::move(c);
  return term;
}

TEST(FragmentParallel, InlineFragmentAtATimeMatchesTopLevelBitForBit) {
  // The evaluator runs one fragment at a time on its calling thread: the
  // last unit of a fragment takes its prefix by move, and the last surviving
  // outcome of each measure or reset projects its parent state in place.
  // Both must leave every bit of the answer unchanged: calls from pool
  // workers equal the top-level call exactly, and both match the oracles.
  Rng rng(307);
  ThreadPool pool(3);
  for (int trial = 0; trial < 10; ++trial) {
    const QpdTerm term = random_two_read_term(rng);
    const FragmentSplit split = split_term(term);
    ASSERT_EQ(split.fragments.size(), 3u) << "trial " << trial;
    ASSERT_EQ(split.fragments[2].reads.size(), 2u) << "trial " << trial;
    ASSERT_LT(split.fragments[2].cond_suffix_begin, split.fragments[2].circuit.size());

    const Real top_level = fragment_term_prob_one(split);
    std::vector<Real> inline_values(4, -1.0);
    pool.parallel_for(0, inline_values.size(), [&](std::size_t i) {
      inline_values[i] = fragment_term_prob_one(split);
    });
    for (const Real v : inline_values) {
      EXPECT_EQ(v, top_level) << "trial " << trial;
    }
    EXPECT_NEAR(top_level, fragment_term_prob_one_baseline(split), 1e-12) << "trial " << trial;
    // The spliced 7-qubit enumeration is the ground truth.
    EXPECT_NEAR(top_level, term_prob_one(term), 1e-12) << "trial " << trial;
  }
}

TEST(BatchedBranchBackend, PlannedAndUnplannedRunsOfOneQpdDrawTheSameBits) {
  // A planned run and run_qpd_estimate on the same QPD execute the same
  // backend: same seed, same plan, same bits.
  const Circuit circ = ghz_line(6);
  PlannerConfig pcfg;
  pcfg.max_fragment_width = 3;
  pcfg.pair_budget = 0;
  pcfg.target_accuracy = 0.1;
  const CutPlanner planner(circ, pcfg);
  const CutPlan plan = planner.plan();
  const PlannedExecutor exec(circ, plan);

  CutRunConfig cfg;
  cfg.shots = 5000;
  cfg.seed = 99;
  ASSERT_EQ(cfg.backend, BackendKind::kBatchedBranch);

  const CutRunResult a = run_qpd_estimate(
      exec.build_qpd(Observable::z_all(6)), *exec.exact_reference(Observable::z_all(6)), cfg);
  const CutRunResult b = exec.run(Observable::z_all(6), cfg);
  EXPECT_EQ(a.report.backend, "batched-branch");
  EXPECT_EQ(b.report.backend, "batched-branch");
  EXPECT_TRUE(a.has_exact);
  EXPECT_TRUE(b.has_exact);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.estimate, b.estimate);
}

TEST(BatchedBranchBackend, DefaultPlannedRunsExecuteOnTheFragmentPath) {
  // Planned execution runs the default backend fragment by fragment at every
  // width, including below the statevector cap: an 8-qubit hwe_ansatz_8
  // plan at cap 4 reports batched-branch and counts fragment work units.
  const Circuit hwe = hwe_ansatz_8();
  ASSERT_LE(hwe.n_qubits(), Statevector::kMaxQubits);
  PlannerConfig pcfg;
  pcfg.max_fragment_width = 4;
  const CutRunConfig rcfg;
  ASSERT_EQ(rcfg.backend, BackendKind::kBatchedBranch);
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const PlannedRunResult out = plan_and_run(hwe, Observable::z_all(8), pcfg, rcfg);
  obs::set_metrics_enabled(was_enabled);
  EXPECT_FALSE(out.plan->cuts.empty());
  EXPECT_EQ(out.run.report.backend, "batched-branch");
  EXPECT_TRUE(out.run.has_exact);
  ASSERT_TRUE(out.run.report.metrics_enabled);
  EXPECT_GT(out.run.report.counters[obs::Counter::kFragmentUnits], 0u);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QCUT_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define QCUT_TEST_SANITIZED 1
#endif
#endif

TEST(FragmentEvaluation, WarmWideTermReusesItsAmplitudeBuffers) {
  // A 16-qubit GHZ term's states are 1 MiB each. Once one evaluation has
  // run, the next takes every buffer from the statevector free list instead
  // of faulting fresh pages in (256 minor faults without the list).
#if defined(QCUT_TEST_SANITIZED) || !defined(RUSAGE_THREAD)
  GTEST_SKIP() << "sanitizer allocators, or no per-thread rusage";
#else
  const auto minor_faults = [] {
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return ru.ru_minflt;
  };
  const int n = 16;
  const Qpd qpd = uncut_qpd(ghz_line(n), all_z(n));
  const FragmentSplit split = split_term(qpd.terms()[0]);
  const Real cold = fragment_term_prob_one(split);
  const long before = minor_faults();
  const Real warm = fragment_term_prob_one(split);
  const long faults = minor_faults() - before;
  EXPECT_EQ(warm, cold);
  EXPECT_LE(faults, 32);
  RecordProperty("minor_faults", static_cast<int>(faults));
#endif
}

}  // namespace
}  // namespace qcut
