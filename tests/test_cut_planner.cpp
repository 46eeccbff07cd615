// The automatic cut planner: circuit analysis (wire AND gate candidates),
// overhead-optimal search (pinned against brute-force subset enumeration over
// the shared assign_protocols cost model), heterogeneous device/link models,
// merge-aware plan-time feasibility, and end-to-end planned execution on the
// batched engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>

#include "qcut/core/cut_executor.hpp"
#include "qcut/core/overhead.hpp"
#include "qcut/cut/gate_cut.hpp"
#include "qcut/cut/harada_cut.hpp"
#include "qcut/cut/mixed_cut.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/plan/circuit_graph.hpp"
#include "qcut/plan/cut_planner.hpp"
#include "qcut/plan/planned_executor.hpp"
#include "qcut/qpd/estimator.hpp"
#include "qcut/sim/gates.hpp"
#include "qcut/sim/qasm_import.hpp"
#include "qcut/sim/statevector.hpp"
#include "test_helpers.hpp"

#ifndef QCUT_QASM_CORPUS_DIR
#define QCUT_QASM_CORPUS_DIR "tests/qasm_corpus"
#endif

namespace qcut {
namespace {

using testing::ghz_line;
using testing::random_unitary_circuit;

/// Controlled-phase: diag(1, 1, 1, e^{iλ}) — gate-cuttable with
/// θ_zz = λ/4, κ = 1 + 2|sin(λ/2)|.
Matrix cp_matrix(Real lambda) { return gates::controlled(gates::phase(lambda)); }

// ---- circuit analysis -------------------------------------------------------

TEST(CircuitGraph, GhzLineCandidates) {
  // h(0), cx(0,1), cx(1,2), ..., cx(n-2,n-1): wire q < n-1 has exactly one
  // gap, between its two ops (q and q+1) → candidate {q + 1, q}. The last
  // wire sees a single op, so it contributes none. cx is a permutation, not
  // diagonal, so the line offers no gate-cut candidates.
  const Circuit ghz = ghz_line(6);
  const CircuitGraph graph(ghz);
  const auto& cands = graph.candidates();
  ASSERT_EQ(cands.size(), 5u);
  for (std::size_t i = 0; i < cands.size(); ++i) {
    EXPECT_EQ(cands[i].qubit, static_cast<int>(i));
    EXPECT_EQ(cands[i].after_op, i + 1);
  }
  EXPECT_TRUE(graph.gate_candidates().empty());
  EXPECT_EQ(graph.all_candidates().size(), cands.size());
}

TEST(CircuitGraph, WireZeroGapIsACandidateWhenOpsAreSeparated) {
  // h(0), cx(1,2), cx(0,1): wire 0's two ops leave a gap covering op 1.
  Circuit c(3, 0);
  c.h(0).cx(1, 2).cx(0, 1);
  const CircuitGraph graph(c);
  const auto& cands = graph.candidates();
  const bool has_wire0 =
      std::any_of(cands.begin(), cands.end(), [](const CutPoint& p) { return p.qubit == 0; });
  EXPECT_TRUE(has_wire0);
}

TEST(CircuitGraph, GateCandidatesAreTheDiagonalTwoQubitOps) {
  // cz and cp are diagonal (gate-cuttable); cx is a permutation and must not
  // appear. Gate candidates follow the wire candidates in all_candidates().
  Circuit c(3, 0);
  c.h(0).h(1).h(2);
  c.cz(0, 1);                         // op 3: θ = ±π/4, κ = 3
  c.cx(1, 2);                         // op 4: not a candidate
  c.gate(cp_matrix(0.6), {1, 2});     // op 5: κ = 1 + 2 sin 0.3 < 3
  const CircuitGraph graph(c);
  const auto& gates_found = graph.gate_candidates();
  ASSERT_EQ(gates_found.size(), 2u);
  EXPECT_EQ(gates_found[0].op_index, 3u);
  EXPECT_NEAR(gates_found[0].kappa, 3.0, 1e-9);
  EXPECT_EQ(gates_found[1].op_index, 5u);
  EXPECT_NEAR(gates_found[1].kappa, 1.0 + 2.0 * std::sin(0.3), 1e-9);

  const auto& all = graph.all_candidates();
  ASSERT_EQ(all.size(), graph.candidates().size() + 2u);
  EXPECT_EQ(all.back().site.kind, CutKind::kGate);
  EXPECT_EQ(all.back().site.op_index, 5u);

  // A diagonal op is severable, so it does not raise the gate-aware width
  // floor; cx does.
  EXPECT_EQ(graph.min_reachable_width(false), 2);
  EXPECT_EQ(graph.min_reachable_width(true), 2);  // the cx survives
  Circuit d(2, 0);
  d.h(0).h(1).cz(0, 1);
  const CircuitGraph dg(d);
  EXPECT_EQ(dg.min_reachable_width(false), 2);
  EXPECT_EQ(dg.min_reachable_width(true), 1);
}

TEST(CircuitGraph, FragmentWidthsGhz) {
  const Circuit ghz = ghz_line(6);
  const CircuitGraph graph(ghz);
  EXPECT_EQ(graph.max_fragment_width({}), 6);
  // One cut on wire 2 after cx(1,2) (op 3): {w0,w1,w2a} and {w2b,w3,w4,w5}.
  EXPECT_EQ(graph.fragment_widths({CutPoint{3, 2}}), (std::vector<int>{4, 3}));
  // Cuts on wires 2 and 4: 3 + 3 + 2.
  EXPECT_EQ(graph.fragment_widths({CutPoint{3, 2}, CutPoint{5, 4}}),
            (std::vector<int>{3, 3, 2}));
  EXPECT_EQ(graph.min_reachable_width(), 2);
}

TEST(CircuitGraph, PartitionReportsCutFragmentPairs) {
  // The merge-aware feasibility input: each wire cut's sender and receiver
  // fragments. Severing a gate cut's op must disconnect without splitting.
  const Circuit ghz = ghz_line(6);
  const CircuitGraph graph(ghz);
  const FragmentPartition part = graph.partition({CutPoint{3, 2}}, {});
  ASSERT_EQ(part.cut_fragments.size(), 1u);
  const auto [fs, fr] = part.cut_fragments[0];
  EXPECT_NE(fs, fr);
  EXPECT_EQ(part.widths[static_cast<std::size_t>(fs)] +
                part.widths[static_cast<std::size_t>(fr)],
            7);  // 6 wires + 1 receiver segment

  Circuit c(2, 0);
  c.h(0).h(1).cz(0, 1).h(0).h(1);
  const CircuitGraph cg(c);
  EXPECT_EQ(cg.partition({}, {}).widths.size(), 1u);
  const FragmentPartition severed = cg.partition({}, {2});
  EXPECT_EQ(severed.widths_desc(), (std::vector<int>{1, 1}));
}

TEST(CircuitGraph, GapsFeedingAnInitializeAreNotCandidates) {
  // Regression: cutting right before an initialize would teleport a state the
  // initialize immediately discards — the cutter rejects that as a dead cut,
  // so the planner must never propose it. The gap AFTER the initialize stays
  // a valid candidate, and planning + QPD construction succeed end-to-end
  // even with observable 'I' on the reinitialized wire.
  Vector zero(2);
  zero[0] = Cplx{1.0, 0.0};
  Circuit c(4, 0);
  c.h(0).cx(0, 1).cx(2, 3);
  c.initialize({1}, zero, "reset1");
  c.cx(1, 2);
  const CircuitGraph graph(c);
  for (const CutPoint& cp : graph.candidates()) {
    EXPECT_FALSE(cp.qubit == 1 && cp.after_op <= 3)
        << "candidate {" << cp.after_op << ", 1} feeds into the initialize";
  }
  const bool has_post_init = std::any_of(
      graph.candidates().begin(), graph.candidates().end(),
      [](const CutPoint& p) { return p.qubit == 1 && p.after_op == 4; });
  EXPECT_TRUE(has_post_init);

  PlannerConfig cfg;
  cfg.max_fragment_width = 3;
  const CutPlanner planner(c, cfg);
  const CutPlan plan = planner.plan();
  ASSERT_FALSE(plan.cuts.empty());
  const PlannedExecutor exec(c, plan);
  EXPECT_NO_THROW(exec.build_qpd(Observable::parse("ZIZZ")));
}

TEST(CircuitGraph, IdleWireIsItsOwnFragment) {
  Circuit c(3, 0);
  c.h(0).cx(0, 1);  // wire 2 untouched
  const CircuitGraph graph(c);
  EXPECT_EQ(graph.fragment_widths({}), (std::vector<int>{2, 1}));
}

TEST(CircuitGraph, WidthIsNotMonotoneUnderAddingCuts) {
  // cx(0,1), cx(1,2), cx(2,3), cx(0,1): cutting wire 0 between its two ops
  // splits a segment whose halves reconnect through wires 1-3, so the single
  // component grows from 4 to 5 segments. This is why the planner's search
  // never uses width as a branch-and-bound pruning bound.
  Circuit c(4, 0);
  c.cx(0, 1).cx(1, 2).cx(2, 3).cx(0, 1);
  const CircuitGraph graph(c);
  EXPECT_EQ(graph.max_fragment_width({}), 4);
  EXPECT_EQ(graph.max_fragment_width({CutPoint{1, 0}}), 5);
}

TEST(CircuitGraph, RejectsNonUnitaryCircuits) {
  Circuit c(2, 1);
  c.h(0).measure(0, 0);
  EXPECT_THROW(CircuitGraph{c}, Error);
}

// ---- planner vs. brute force ------------------------------------------------

struct BruteResult {
  bool found = false;
  Real cost = std::numeric_limits<Real>::infinity();
  std::vector<std::size_t> set;
};

/// Reference enumeration of ALL candidate subsets under the planner's OWN
/// deterministic cost model (assign_protocols — protocol selection, device
/// fit, and merge-aware sim fit included): minimal Π κ_i², ties to the
/// lexicographically smallest index sequence — the planner's documented
/// tie-break (DFS pre-order equals sequence-lexicographic order).
BruteResult brute_force(const CutPlanner& planner) {
  const std::size_t m = planner.search_candidates().size();
  BruteResult best;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << m); ++mask) {
    std::vector<std::size_t> idxs;
    for (std::size_t i = 0; i < m; ++i) {
      if ((mask >> i) & 1) {
        idxs.push_back(i);
      }
    }
    if (idxs.size() > planner.config().max_cuts) {
      continue;
    }
    const ProtocolAssignment assign = planner.assign_protocols(idxs);
    if (!assign.feasible) {
      continue;
    }
    const bool better =
        !best.found || assign.overhead < best.cost - 1e-12 ||
        (std::abs(assign.overhead - best.cost) <= 1e-12 &&
         std::lexicographical_compare(idxs.begin(), idxs.end(), best.set.begin(),
                                      best.set.end()));
    if (better) {
      best.found = true;
      best.cost = assign.overhead;
      best.set = idxs;
    }
  }
  return best;
}

void expect_same_as_brute(const CutPlanner& planner, const CutPlan& plan, const BruteResult& ref) {
  EXPECT_NEAR(plan.total_overhead, ref.cost, 1e-9);
  ASSERT_EQ(plan.cuts.size(), ref.set.size());
  for (std::size_t i = 0; i < ref.set.size(); ++i) {
    EXPECT_TRUE(plan.cuts[i].site == planner.search_candidates()[ref.set[i]].site)
        << "cut " << i << " differs from brute force";
  }
  EXPECT_LE(plan.max_sim_width, Statevector::kMaxQubits);
}

void expect_plan_matches_brute(const Circuit& circ, const PlannerConfig& cfg) {
  const CutPlanner planner(circ, cfg);
  const CutPlan plan = planner.plan();
  const BruteResult ref = brute_force(planner);
  ASSERT_TRUE(ref.found);
  // The library's own reference scan must agree with this test's oracle.
  EXPECT_NEAR(planner.reference_overhead(), ref.cost, 1e-9);
  expect_same_as_brute(planner, plan, ref);
}

TEST(CutPlanner, WidthCappedGhzMatchesBruteForce) {
  for (int n : {4, 5, 6, 7, 8}) {
    for (int cap : {2, 3, 4}) {
      PlannerConfig cfg;
      cfg.max_fragment_width = cap;
      expect_plan_matches_brute(ghz_line(n), cfg);
    }
  }
}

TEST(CutPlanner, BudgetedGhzMatchesBruteForce) {
  PlannerConfig cfg;
  cfg.max_fragment_width = 3;
  cfg.resource_overlap = 0.85;
  cfg.pair_budget = 1;
  expect_plan_matches_brute(ghz_line(7), cfg);
}

TEST(CutPlanner, GateCutCircuitsMatchBruteForce) {
  // Mixed wire/gate candidate sets across caps and budgets: the DFS must
  // stay exactly optimal under the shared assign_protocols model.
  Circuit c(4, 0);
  c.h(0).h(1).h(2).h(3);
  c.cx(0, 1).cz(2, 3);
  c.gate(cp_matrix(0.8), {1, 2});
  c.cx(0, 1).cz(2, 3);
  for (int cap : {2, 3}) {
    for (int budget : {0, 1}) {
      PlannerConfig cfg;
      cfg.max_fragment_width = cap;
      cfg.resource_overlap = 0.85;
      cfg.pair_budget = budget;
      expect_plan_matches_brute(c, cfg);
    }
  }
}

TEST(CutPlanner, BranchAndBoundAgreesWithExhaustive) {
  // Same instance through both search paths: forcing exhaustive_limit to 0
  // switches on the pruned branch-and-bound; the chosen set must not change.
  const Circuit ghz = ghz_line(8);
  PlannerConfig cfg;
  cfg.max_fragment_width = 3;
  PlannerConfig bnb = cfg;
  bnb.exhaustive_limit = 0;
  const CutPlan full = CutPlanner(ghz, cfg).plan();
  const CutPlan pruned = CutPlanner(ghz, bnb).plan();
  ASSERT_EQ(full.cuts.size(), pruned.cuts.size());
  for (std::size_t i = 0; i < full.cuts.size(); ++i) {
    EXPECT_TRUE(full.cuts[i].site == pruned.cuts[i].site);
  }
  EXPECT_NEAR(full.total_overhead, pruned.total_overhead, 1e-12);
  EXPECT_LT(pruned.nodes_explored, full.nodes_explored);
}

TEST(CutPlanner, BranchAndBoundHandlesReconnectingSegments) {
  // Regression: on circuits where splitting a segment does NOT shrink any
  // fragment (the halves reconnect through other wires), a width-based prune
  // would cut off the feasible subtrees and return a grossly suboptimal
  // plan. The fixed search must match brute force and the exhaustive path.
  Circuit c(5, 0);
  c.cx(3, 4).cx(2, 3).cx(1, 2).cx(3, 4).cx(2, 3);
  PlannerConfig cfg;
  cfg.max_fragment_width = 3;
  cfg.resource_overlap = 0.85;
  cfg.pair_budget = 1;
  expect_plan_matches_brute(c, cfg);

  PlannerConfig bnb = cfg;
  bnb.exhaustive_limit = 0;  // force the pruned search
  const CutPlan full = CutPlanner(c, cfg).plan();
  const CutPlan pruned = CutPlanner(c, bnb).plan();
  ASSERT_EQ(full.cuts.size(), pruned.cuts.size());
  for (std::size_t i = 0; i < full.cuts.size(); ++i) {
    EXPECT_TRUE(full.cuts[i].site == pruned.cuts[i].site);
  }
  EXPECT_NEAR(full.total_overhead, pruned.total_overhead, 1e-12);
}

// ---- the slot-aware branch-and-bound bound ----------------------------------

/// Calls `fn` on every subset of {0..m-1} with at most `max_k` elements, each
/// by increasing index.
void for_each_subset(std::size_t m, std::size_t max_k,
                     const std::function<void(const std::vector<std::size_t>&)>& fn) {
  std::vector<std::size_t> cur;
  std::function<void(std::size_t)> rec = [&](std::size_t start) {
    fn(cur);
    if (cur.size() >= max_k) {
      return;
    }
    for (std::size_t i = start; i < m; ++i) {
      cur.push_back(i);
      rec(i + 1);
      cur.pop_back();
    }
  };
  rec(0);
}

struct BoundCheck {
  std::size_t fully_granted = 0;
  std::size_t backed_off = 0;
};

/// Every subset: cost_lower_bound never exceeds the assigned overhead (no
/// tolerance), and equals it bit for bit when all min(wire cuts, slots)
/// pairs are granted.
BoundCheck check_bound(const Circuit& circ, const PlannerConfig& cfg, std::size_t slots) {
  const CutPlanner planner(circ, cfg);
  BoundCheck out;
  for_each_subset(planner.search_candidates().size(), cfg.max_cuts,
                  [&](const std::vector<std::size_t>& subset) {
    const ProtocolAssignment assign = planner.assign_protocols(subset);
    if (!assign.feasible) {
      return;
    }
    std::size_t wires = 0;
    std::size_t granted = 0;
    for (const PlannedCut& pc : assign.cuts) {
      wires += pc.site.kind == CutKind::kWire ? 1 : 0;
      granted += pc.entangled ? 1 : 0;
    }
    const Real lb = planner.cost_lower_bound(subset);
    EXPECT_LE(lb, assign.overhead) << "inadmissible bound, subset size " << subset.size();
    if (granted == std::min(wires, slots)) {
      ++out.fully_granted;
      EXPECT_EQ(lb, assign.overhead) << "bound not exact without back-off";
    } else {
      ++out.backed_off;
      EXPECT_LT(lb, assign.overhead);
    }
  });
  return out;
}

TEST(CutPlannerBound, AdmissibleAndExactAcrossBudgets) {
  for (int budget : {1, 2, 3}) {
    for (Real f : {0.6, 0.9}) {
      PlannerConfig cfg;
      cfg.max_fragment_width = 3;
      cfg.resource_overlap = f;
      cfg.pair_budget = budget;
      const BoundCheck r = check_bound(ghz_line(7), cfg, static_cast<std::size_t>(budget));
      EXPECT_GT(r.fully_granted, 0u) << "budget " << budget;
    }
  }
}

TEST(CutPlannerBound, AdmissibleOnHeterogeneousLinks) {
  // bench_planner's hetlink shape: a perfect pair (κ = 1) and an f = 0.8
  // pair (κ = 1.5) — the bound must charge them best-first like the grants.
  PlannerConfig cfg;
  cfg.max_fragment_width = 3;
  cfg.device_model.links = {LinkSpec{0.8, 1, LinkFamily::kNme},
                            LinkSpec{1.0, 1, LinkFamily::kNme}};
  const BoundCheck r = check_bound(ghz_line(6), cfg, 2);
  EXPECT_GT(r.fully_granted, 0u);
}

TEST(CutPlannerBound, AdmissibleWithGateCuts) {
  // Non-integer gate κ(θ)² interleaved with slot κ²: equality needs the
  // bound to multiply in exactly assign_protocols' order.
  Circuit c(4, 0);
  c.h(0).h(1).h(2).h(3);
  c.cx(0, 1).cz(2, 3);
  c.gate(cp_matrix(0.8), {1, 2});
  c.cx(0, 1).cz(2, 3);
  for (int budget : {1, 2, 3}) {
    PlannerConfig cfg;
    cfg.max_fragment_width = 3;
    cfg.resource_overlap = 0.85;
    cfg.pair_budget = budget;
    const BoundCheck r = check_bound(c, cfg, static_cast<std::size_t>(budget));
    EXPECT_GT(r.fully_granted, 0u) << "budget " << budget;
  }
}

TEST(CutPlannerBound, StaysBelowTheOverheadWhenPairsBackOff) {
  // GHZ(26) at cap 16: one merged cut holds 27 segments + 1 helper = 28
  // qubits, which fits the engine cap, but two merged cuts hold 28 + 2 = 30,
  // so assign_protocols withholds the second pair. The bound still charges
  // that slot's κ and must stay strictly below the overhead there.
  PlannerConfig cfg;
  cfg.max_fragment_width = 16;
  cfg.resource_overlap = 0.85;
  cfg.pair_budget = 2;
  cfg.max_cuts = 2;
  const BoundCheck r = check_bound(ghz_line(26), cfg, 2);
  EXPECT_GT(r.backed_off, 0u);
  EXPECT_GT(r.fully_granted, 0u);
}

/// Seeded random circuit: an ry layer, then `n_cx` nearest-neighbour cx
/// gates. Every wire gap is a candidate, so there are at most 2 * n_cx.
Circuit random_ry_cx(int n, int n_cx, Rng& rng) {
  Circuit c(n, 0);
  for (int q = 0; q < n; ++q) {
    c.ry(q, rng.uniform(0.0, kPi));
  }
  for (int g = 0; g < n_cx; ++g) {
    const int q = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n - 1)));
    c.cx(q, q + 1);
  }
  return c;
}

TEST(CutPlannerBound, PrunedSearchMatchesBruteForceOnRandomCircuits) {
  // exhaustive_limit = 0 forces the branch-and-bound on every instance.
  Rng rng(4242);
  int planned = 0;
  for (int n : {6, 7, 8}) {
    const Circuit circ = random_ry_cx(n, n, rng);
    for (int cap : {3, 4}) {
      for (int budget : {1, 2, 3}) {
        for (Real f : {0.6, 0.9, 1.0}) {
          SCOPED_TRACE("n " + std::to_string(n) + " cap " + std::to_string(cap) + " budget " +
                       std::to_string(budget) + " f " + std::to_string(f));
          PlannerConfig cfg;
          cfg.max_fragment_width = cap;
          cfg.resource_overlap = f;
          cfg.pair_budget = budget;
          cfg.exhaustive_limit = 0;
          const CutPlanner planner(circ, cfg);
          ASSERT_LE(planner.search_candidates().size(), 16u);
          const BruteResult ref = brute_force(planner);
          if (!ref.found) {
            EXPECT_THROW(planner.plan(), Error);
            continue;
          }
          expect_same_as_brute(planner, planner.plan(), ref);
          ++planned;
        }
      }
    }
  }
  EXPECT_GE(planned, 27);
}

TEST(CutPlannerBound, NmeSettingPlansInFewNodes) {
  // The paper's NME setting on hwe_ansatz_8: cap 6, two f = 0.9 pairs. A
  // bound that charges every wire cut the best slot's κ visits 77,902 nodes
  // here; the slot-aware bound prunes from the first incumbent (266 nodes).
  const Circuit hwe = import_qasm_file(std::string(QCUT_QASM_CORPUS_DIR) + "/hwe_ansatz_8.qasm");
  PlannerConfig cfg;
  cfg.max_fragment_width = 6;
  cfg.pair_budget = 2;
  cfg.resource_overlap = 0.9;
  expect_plan_matches_brute(hwe, cfg);
  const CutPlan plan = CutPlanner(hwe, cfg).plan();
  EXPECT_LE(plan.nodes_explored, 1000u);
  EXPECT_FALSE(plan.budget_exhausted);
}

TEST(CutPlanner, EntanglementBudgetSetsKappa) {
  const Circuit ghz = ghz_line(6);  // needs 2 cuts at cap 3
  PlannerConfig cfg;
  cfg.max_fragment_width = 3;

  const CutPlan no_budget = CutPlanner(ghz, cfg).plan();
  ASSERT_EQ(no_budget.cuts.size(), 2u);
  EXPECT_NEAR(no_budget.total_kappa, 9.0, 1e-12);  // 3 * 3, entanglement-free
  for (const auto& c : no_budget.cuts) {
    EXPECT_EQ(c.spec.id, ProtocolId::kHarada);
    EXPECT_FALSE(c.entangled);
  }
  // No entangled cuts → nothing merges: sim widths equal fragment widths.
  EXPECT_EQ(no_budget.sim_widths, no_budget.fragment_widths);

  cfg.resource_overlap = 1.0;  // maximally entangled pairs: free cuts
  cfg.pair_budget = 2;
  const CutPlan free_pairs = CutPlanner(ghz, cfg).plan();
  EXPECT_NEAR(free_pairs.total_kappa, 1.0, 1e-12);
  for (const auto& c : free_pairs.cuts) {
    EXPECT_EQ(c.spec.id, ProtocolId::kNme);
    EXPECT_TRUE(c.entangled);
    EXPECT_EQ(c.link, 0);
    EXPECT_NEAR(c.spec.param, 1.0, 1e-9);
  }
  // Both NME cuts merge their fragments (plus 1 helper each): {3,3,2} → 10.
  EXPECT_EQ(free_pairs.max_sim_width, 10);

  cfg.pair_budget = 1;  // one pair only: 1 * 3
  const CutPlan one_pair = CutPlanner(ghz, cfg).plan();
  EXPECT_NEAR(one_pair.total_kappa, 3.0, 1e-12);
  EXPECT_TRUE(one_pair.cuts[0].entangled);
  EXPECT_FALSE(one_pair.cuts[1].entangled);

  cfg.pair_budget = 2;
  cfg.resource_overlap = 0.8;  // kappa per cut = 2/f - 1 = 1.5
  const CutPlan partial = CutPlanner(ghz, cfg).plan();
  EXPECT_NEAR(partial.total_kappa, 2.25, 1e-12);
  EXPECT_NEAR(partial.predicted_shots,
              shots_for_accuracy(partial.total_kappa, cfg.target_accuracy), 1e-9);
}

TEST(CutPlanner, GateCutWinsWhenItBeatsEveryWirePlan) {
  // The two halves touch only through one weakly entangling cp(0.6): its
  // gate cut costs κ = 1 + 2 sin 0.3 ≈ 1.59, while any wire-only separation
  // needs several κ = 3 cuts. The planner must pick the single gate cut —
  // and with gate cuts disabled, fall back to the expensive wire plan.
  Circuit c(4, 0);
  c.h(0).h(1).h(2).h(3);
  c.cx(0, 1).cx(2, 3);
  c.gate(cp_matrix(0.6), {1, 2}, "cp");
  c.cx(0, 1).cx(2, 3);
  PlannerConfig cfg;
  cfg.max_fragment_width = 2;
  expect_plan_matches_brute(c, cfg);

  const CutPlanner planner(c, cfg);
  const CutPlan plan = planner.plan();
  ASSERT_EQ(plan.cuts.size(), 1u);
  EXPECT_EQ(plan.cuts[0].site.kind, CutKind::kGate);
  EXPECT_EQ(plan.gate_cut_count(), 1u);
  EXPECT_EQ(plan.cuts[0].spec.id, ProtocolId::kZzGate);
  const Real kappa_cp = 1.0 + 2.0 * std::sin(0.3);
  EXPECT_NEAR(plan.total_kappa, kappa_cp, 1e-9);
  EXPECT_EQ(plan.max_width, 2);

  PlannerConfig wire_only = cfg;
  wire_only.allow_gate_cuts = false;
  const CutPlan fallback = CutPlanner(c, wire_only).plan();
  EXPECT_EQ(fallback.gate_cut_count(), 0u);
  EXPECT_GT(fallback.total_overhead, plan.total_overhead * 2.0);

  // End-to-end: the planned gate cut reproduces the exact expectation (the
  // spliced branches include the cp's local phase factors).
  const PlannedExecutor exec(c, plan);
  for (const std::string obs : {"ZZZZ", "XYXZ"}) {
    const Qpd qpd = exec.build_qpd(Observable::parse(obs));
    EXPECT_NEAR(exact_value(qpd), uncut_circuit_expectation(c, obs), 1e-8) << obs;
    EXPECT_NEAR(qpd.kappa(), plan.total_kappa, 1e-9);
  }
  CutRunConfig rcfg;
  rcfg.shots = 20000;
  rcfg.seed = 7;
  const CutRunResult res = exec.run(Observable::z_all(4), rcfg);
  EXPECT_LE(res.abs_error, 0.15);
}

TEST(CutPlanner, HeterogeneousDeviceCapsAssignFragmentsToDevices) {
  // Two 4-qubit devices: GHZ(7) fits only as {4, 4}, which exactly one
  // candidate cut produces. Shrinking either device makes the instance
  // infeasible (two cuts would need three devices).
  PlannerConfig cfg;
  cfg.device_model.devices = {DeviceSpec{4, "qpu-a"}, DeviceSpec{4, "qpu-b"}};
  const CutPlan plan = CutPlanner(ghz_line(7), cfg).plan();
  ASSERT_EQ(plan.cuts.size(), 1u);
  EXPECT_TRUE(plan.cuts[0].site == CutSite::wire(CutPoint{4, 3}));
  EXPECT_EQ(plan.fragment_widths, (std::vector<int>{4, 4}));

  PlannerConfig tight;
  tight.device_model.devices = {DeviceSpec{3, "qpu-a"}, DeviceSpec{3, "qpu-b"}};
  EXPECT_THROW(CutPlanner(ghz_line(7), tight).plan(), Error);
}

TEST(CutPlanner, HeterogeneousLinksGrantBestSlotsFirst) {
  // Two links of different quality: the perfect pair (κ = 1) goes to the
  // earliest cut, the f = 0.8 pair (κ = 1.5) to the next.
  PlannerConfig cfg;
  cfg.max_fragment_width = 3;
  cfg.device_model.links = {LinkSpec{0.8, 1, LinkFamily::kNme},
                            LinkSpec{1.0, 1, LinkFamily::kNme}};
  const CutPlan plan = CutPlanner(ghz_line(6), cfg).plan();
  ASSERT_EQ(plan.cuts.size(), 2u);
  EXPECT_TRUE(plan.cuts[0].entangled);
  EXPECT_EQ(plan.cuts[0].link, 1);
  EXPECT_NEAR(plan.cuts[0].kappa, 1.0, 1e-12);
  EXPECT_TRUE(plan.cuts[1].entangled);
  EXPECT_EQ(plan.cuts[1].link, 0);
  EXPECT_NEAR(plan.cuts[1].kappa, 1.5, 1e-12);
  EXPECT_NEAR(plan.total_kappa, 1.5, 1e-12);
}

TEST(CutPlanner, MixedLinkRunsTheWernerProtocolEndToEnd) {
  // A kMixed link instantiates MixedNmeCut over the Werner resource at q_I:
  // κ = (7 − 4 q_I)/(4 q_I − 1). The typed spec must flow planner → executor
  // and reproduce the exact expectation.
  PlannerConfig cfg;
  cfg.max_fragment_width = 3;
  cfg.device_model.links = {LinkSpec{0.9, 1, LinkFamily::kMixed}};
  const Circuit ghz = ghz_line(5);
  const CutPlan plan = CutPlanner(ghz, cfg).plan();
  ASSERT_EQ(plan.cuts.size(), 1u);
  EXPECT_EQ(plan.cuts[0].spec.id, ProtocolId::kMixedNme);
  EXPECT_NEAR(plan.cuts[0].spec.param, 0.9, 1e-12);
  EXPECT_NEAR(plan.total_kappa, mixed_cut_overhead(0.9), 1e-12);

  const PlannedExecutor exec(ghz, plan);
  const Qpd qpd = exec.build_qpd(Observable::z_all(5));
  EXPECT_NEAR(exact_value(qpd), uncut_circuit_expectation(ghz, "ZZZZZ"), 1e-8);
  EXPECT_NEAR(qpd.kappa(), plan.total_kappa, 1e-9);
}

// ---- merge-aware plan-time feasibility --------------------------------------

TEST(CutPlanner, MergeAwareFeasibilityRepairsWidePlans) {
  // GHZ(30) at cap 16 needs one cut ({16, 15}). Granting the NME pair would
  // merge both fragments in the simulator: 31 segments + 1 helper = 32 > 28.
  // The old planner emitted that plan and the exact backend threw at RUN
  // time; now the planner repairs it at PLAN time by withholding the pair.
  const Circuit ghz = ghz_line(30);
  PlannerConfig cfg;
  cfg.max_fragment_width = 16;
  cfg.resource_overlap = 0.85;
  cfg.pair_budget = 2;
  const CutPlan plan = CutPlanner(ghz, cfg).plan();
  ASSERT_EQ(plan.cuts.size(), 1u);
  EXPECT_FALSE(plan.cuts[0].entangled);
  EXPECT_EQ(plan.cuts[0].spec.id, ProtocolId::kHarada);
  EXPECT_NEAR(plan.total_kappa, 3.0, 1e-12);
  EXPECT_EQ(plan.max_width, 16);
  EXPECT_EQ(plan.max_sim_width, 16);  // nothing merges
  EXPECT_LE(plan.max_sim_width, Statevector::kMaxQubits);

  // The repaired plan must actually run — this is the path that used to die
  // in the exact backend's width check.
  const PlannedExecutor exec(ghz, plan);
  CutRunConfig rcfg;
  rcfg.shots = 2000;
  rcfg.seed = 11;
  const CutRunResult res = exec.run(Observable::z_all(30), rcfg);
  EXPECT_FALSE(res.has_exact);  // 30 qubits: no monolithic reference
  EXPECT_LE(std::abs(res.estimate), 1.0 + 1e-9);
}

TEST(CutPlanner, MergeStaysGrantedWhenTheMergedWidthFits) {
  // GHZ(20) at cap 16: the merged component (21 segments + 1 helper = 22)
  // fits under the engine cap, so the pair IS granted and the plan records
  // the merged width it will occupy.
  const Circuit ghz = ghz_line(20);
  PlannerConfig cfg;
  cfg.max_fragment_width = 16;
  cfg.resource_overlap = 0.85;
  cfg.pair_budget = 1;
  const CutPlan plan = CutPlanner(ghz, cfg).plan();
  ASSERT_EQ(plan.cuts.size(), 1u);
  EXPECT_TRUE(plan.cuts[0].entangled);
  EXPECT_EQ(plan.cuts[0].spec.id, ProtocolId::kNme);
  EXPECT_NEAR(plan.total_kappa, 2.0 / 0.85 - 1.0, 1e-12);
  EXPECT_EQ(plan.max_sim_width, 22);
}

TEST(CutPlanner, MemoizedMergeProfileEqualsAFreshProbe) {
  // Every protocol id, the entangled families at several parameters; each
  // spec twice, so the second lookup is served from the memo.
  std::vector<ProtocolSpec> specs = {{ProtocolId::kHarada, 0.0},
                                     {ProtocolId::kPeng, 0.0},
                                     {ProtocolId::kTeleport, 0.0},
                                     {ProtocolId::kZzGate, 0.3}};
  for (const LinkFamily family : {LinkFamily::kNme, LinkFamily::kDistill, LinkFamily::kMixed}) {
    for (const Real f : {0.6, 0.75, 0.9, 1.0}) {
      specs.push_back(link_protocol_spec(LinkSpec{f, 1, family}));
    }
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (const ProtocolSpec& spec : specs) {
      const MergeProfile memo = spec_merge_profile(spec);
      const MergeProfile fresh = merge_profile(*make_protocol(spec));
      EXPECT_EQ(memo.merges, fresh.merges) << to_string(spec);
      EXPECT_EQ(memo.merged_extra, fresh.merged_extra) << to_string(spec);
      EXPECT_EQ(memo.sender_extra, fresh.sender_extra) << to_string(spec);
      EXPECT_EQ(memo.receiver_extra, fresh.receiver_extra) << to_string(spec);
    }
  }
  // The entangled wire cuts merge; the probe is what says so.
  EXPECT_TRUE(spec_merge_profile(specs.back()).merges);
  EXPECT_FALSE(spec_merge_profile(specs.front()).merges);
}

TEST(CutPlanner, ZeroCutsWhenCircuitFits) {
  PlannerConfig cfg;
  cfg.max_fragment_width = 4;
  const CutPlan plan = CutPlanner(ghz_line(4), cfg).plan();
  EXPECT_TRUE(plan.cuts.empty());
  EXPECT_NEAR(plan.total_kappa, 1.0, 1e-12);
  EXPECT_EQ(plan.max_width, 4);
  EXPECT_EQ(plan.max_sim_width, 4);
}

TEST(CutPlanner, SelfContainedAfterConstruction) {
  // The planner keeps its own copy of the circuit: constructing from a
  // temporary and planning in a later statement must be safe.
  PlannerConfig cfg;
  cfg.max_fragment_width = 3;
  const CutPlanner planner(ghz_line(5), cfg);
  const CutPlan plan = planner.plan();
  EXPECT_EQ(plan.cuts.size(), 1u);
  EXPECT_EQ(planner.graph().n_qubits(), 5);
  EXPECT_FALSE(plan.budget_exhausted);
}

TEST(CutPlanner, NodeBudgetBoundsHopelessSearches) {
  // A deep brickwork passes the min_reachable_width pre-check (widest op is
  // 2 qubits) but no <= 8-cut set can reach a width cap of 2: without the
  // node budget the search would enumerate Σ_k C(m, k) subsets before
  // throwing. With the budget it must fail fast with a distinct error.
  Rng rng(33);
  const Circuit deep = random_unitary_circuit(6, 30, rng);
  PlannerConfig cfg;
  cfg.max_fragment_width = 2;
  cfg.max_nodes = 500;
  try {
    CutPlanner(deep, cfg).plan();
    FAIL() << "expected the node-budget error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("max_nodes"), std::string::npos);
  }
}

TEST(CutPlanner, ThrowsWhenInfeasible) {
  PlannerConfig cfg;
  cfg.max_fragment_width = 1;  // a CX can never be split
  const CutPlanner hopeless(ghz_line(4), cfg);
  EXPECT_THROW(hopeless.plan(), Error);
  EXPECT_EQ(hopeless.reference_overhead(), -1.0);

  // The width pre-check must fire in O(1) even with a huge candidate set:
  // an 8-wire brickwork with dozens of candidates would otherwise enumerate
  // the whole subset tree before throwing.
  Rng rng(31);
  const Circuit wide = random_unitary_circuit(8, 40, rng);
  EXPECT_THROW(CutPlanner(wide, cfg).plan(), Error);

  PlannerConfig tight;
  tight.max_fragment_width = 2;
  tight.max_cuts = 1;  // GHZ(8) at cap 2 needs 3 cuts
  EXPECT_THROW(CutPlanner(ghz_line(8), tight).plan(), Error);

  PlannerConfig bad;
  bad.max_fragment_width = -1;  // 0 is the engine-cap default, negatives are not
  EXPECT_THROW(CutPlanner(ghz_line(4), bad), Error);
}

TEST(CutPlanner, DefaultedWidthCapTracksTheEngineCap) {
  // max_fragment_width = 0 resolves to Statevector::kMaxQubits, so a plan
  // the defaulted planner accepts is always one the fragment evaluator can
  // run. With cuts forbidden, planning succeeds exactly when the uncut
  // circuit fits under the engine cap.
  PlannerConfig cfg;
  cfg.max_cuts = 0;
  for (const int n : {20, 21, Statevector::kMaxQubits}) {
    const CutPlan plan = CutPlanner(ghz_line(n), cfg).plan();
    EXPECT_TRUE(plan.cuts.empty()) << "n = " << n;
    EXPECT_EQ(plan.max_width, n);
  }
  EXPECT_THROW(CutPlanner(ghz_line(Statevector::kMaxQubits + 1), cfg).plan(), Error);
}

// ---- multi-cut splicing -----------------------------------------------------

TEST(CutCircuitSites, TwoCutExactValueAndKappa) {
  Rng rng(21);
  const NmeCut nme(0.7);
  const HaradaCut harada;
  for (int trial = 0; trial < 3; ++trial) {
    const Circuit circ = random_unitary_circuit(4, 6, rng);
    const std::vector<CutSite> sites = {CutSite::wire({2, 1}), CutSite::wire({4, 2})};
    const Qpd qpd = cut_circuit_sites(circ, sites, {&nme, &harada}, "ZXZY");
    EXPECT_NEAR(exact_value(qpd), uncut_circuit_expectation(circ, "ZXZY"), 1e-8)
        << "trial " << trial;
    EXPECT_NEAR(qpd.kappa(), nme.kappa() * harada.kappa(), 1e-9);
    EXPECT_NEAR(qpd.coefficient_sum(), 1.0, 1e-9);
    EXPECT_EQ(qpd.size(), 9u);  // 3 nme gadgets x 3 harada gadgets
  }
}

TEST(CutCircuitSites, ChainedCutsOnOneWire) {
  // Two cuts on the same wire: the second consumes the first's receiver.
  Rng rng(22);
  const Circuit circ = random_unitary_circuit(3, 6, rng);
  const NmeCut a(0.9), b(0.6);
  const Qpd qpd =
      cut_circuit_sites(circ, {CutSite::wire({2, 1}), CutSite::wire({4, 1})}, {&a, &b}, "ZZZ");
  EXPECT_NEAR(exact_value(qpd), uncut_circuit_expectation(circ, "ZZZ"), 1e-8);
  EXPECT_NEAR(qpd.kappa(), a.kappa() * b.kappa(), 1e-9);
}

TEST(CutCircuitSites, SinglePointReproducesCutCircuit) {
  Rng rng(23);
  const Circuit circ = random_unitary_circuit(3, 5, rng);
  const NmeCut proto(0.55);
  const Qpd single = cut_circuit(circ, {3, 1}, proto, "ZXZ");
  const Qpd multi = cut_circuit_sites(circ, {CutSite::wire({3, 1})}, {&proto}, "ZXZ");
  ASSERT_EQ(single.size(), multi.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single.terms()[i].coefficient, multi.terms()[i].coefficient);
    EXPECT_EQ(single.terms()[i].estimate_cbits, multi.terms()[i].estimate_cbits);
    EXPECT_EQ(single.terms()[i].label, multi.terms()[i].label);
    EXPECT_EQ(single.terms()[i].circuit.size(), multi.terms()[i].circuit.size());
  }
}

TEST(CutCircuitSites, MixedWireAndGateSitesExactValue) {
  // One wire cut plus one gate cut in the same host circuit: the product QPD
  // must reproduce the exact expectation, with κ the per-cut product. The
  // cp's local phase factors ride along as branch-independent locals.
  Rng rng(29);
  for (int trial = 0; trial < 3; ++trial) {
    Circuit circ(3, 0);
    circ.gate(haar_unitary(4, rng), {0, 1});
    circ.gate(haar_unitary(2, rng), {2});
    circ.gate(cp_matrix(0.9), {1, 2}, "cp");
    circ.gate(haar_unitary(4, rng), {0, 1});
    circ.gate(haar_unitary(2, rng), {2});

    const ZzFactorization f = zz_factor_diagonal(cp_matrix(0.9));
    ASSERT_TRUE(f.ok);
    const ZzGateCut gate_cut(f.theta, f.local_a, f.local_b);
    const NmeCut wire_cut(0.7);
    const std::vector<CutSite> sites = {CutSite::wire(CutPoint{1, 1}), CutSite::gate(2)};
    const Qpd qpd = cut_circuit_sites(circ, sites, {&wire_cut, &gate_cut}, "ZXY");
    EXPECT_NEAR(exact_value(qpd), uncut_circuit_expectation(circ, "ZXY"), 1e-8)
        << "trial " << trial;
    EXPECT_NEAR(qpd.kappa(), wire_cut.kappa() * gate_cut.kappa(), 1e-9);
    EXPECT_NEAR(qpd.coefficient_sum(), 1.0, 1e-9);
  }
}

TEST(CutCircuitSites, RejectsBadArguments) {
  const HaradaCut h;
  const ZzGateCut zz(0.3);
  Circuit c(2, 0);
  c.h(0).cx(0, 1).cz(0, 1);
  // Kind mismatch both ways.
  EXPECT_THROW(cut_circuit_sites(c, {CutSite::wire(CutPoint{1, 0})}, {&zz}, "ZZ"), Error);
  EXPECT_THROW(cut_circuit_sites(c, {CutSite::gate(2)}, {&h}, "ZZ"), Error);
  // Gate sites need a two-qubit unitary op, cut at most once.
  EXPECT_THROW(cut_circuit_sites(c, {CutSite::gate(0)}, {&zz}, "ZZ"), Error);
  EXPECT_THROW(cut_circuit_sites(c, {CutSite::gate(3)}, {&zz}, "ZZ"), Error);
  EXPECT_THROW(cut_circuit_sites(c, {CutSite::gate(2), CutSite::gate(2)}, {&zz, &zz}, "ZZ"),
               Error);
  // No sites, a site/protocol count mismatch, and a null protocol.
  const CutSite wire = CutSite::wire(CutPoint{1, 0});
  EXPECT_THROW(cut_circuit_sites(c, {}, {}, "ZZ"), Error);
  EXPECT_THROW(cut_circuit_sites(c, {wire}, {&h, &h}, "ZZ"), Error);
  EXPECT_THROW(cut_circuit_sites(c, {wire}, {nullptr}, "ZZ"), Error);
}

// ---- end-to-end planned execution ------------------------------------------

TEST(PlannedExecutor, GhzConvergesWithinThreeSigmaAtPredictedBudget) {
  // The acceptance-criterion experiment: plan a width-capped GHZ(6) line,
  // execute the planned multi-cut QPD at the predicted κ²/ε² shot budget, and
  // require the estimate within 3σ (σ = ε at that budget) of the exact value.
  const Circuit ghz = ghz_line(6);
  PlannerConfig pcfg;
  pcfg.max_fragment_width = 3;
  pcfg.resource_overlap = 0.85;
  pcfg.pair_budget = 2;
  pcfg.target_accuracy = 0.05;
  const CutPlanner planner(ghz, pcfg);
  const CutPlan plan = planner.plan();
  ASSERT_EQ(plan.cuts.size(), 2u);
  EXPECT_LE(plan.max_width, 3);

  const PlannedExecutor exec(ghz, plan);
  for (const std::string obs : {"XXXXXX", "ZZZZZZ"}) {
    const Real exact = uncut_circuit_expectation(ghz, obs);
    const Qpd qpd = exec.build_qpd(Observable::parse(obs));
    EXPECT_NEAR(exact_value(qpd), exact, 1e-8) << obs;
    EXPECT_NEAR(qpd.kappa(), plan.total_kappa, 1e-9) << obs;

    CutRunConfig rcfg;
    rcfg.shots = 0;  // the planner-predicted budget
    rcfg.seed = 20240731;
    const CutRunResult res = exec.run(Observable::parse(obs), rcfg);
    EXPECT_EQ(res.exact, exact);
    EXPECT_GE(res.details.shots_used,
              static_cast<std::uint64_t>(plan.predicted_shots * 0.99));
    EXPECT_LE(res.abs_error, 3.0 * pcfg.target_accuracy) << obs;
  }
}

TEST(PlannedExecutor, MeanErrorOverTrialsTracksTargetAccuracy) {
  // Average |error| over independent seeds stays near/below ε (the single-run
  // bound is κ/√N = ε; the mean of |N(0,ε)| is ε·√(2/π) ≈ 0.8ε).
  const Circuit ghz = ghz_line(5);
  PlannerConfig pcfg;
  pcfg.max_fragment_width = 3;
  pcfg.target_accuracy = 0.1;
  const PlannedRunResult first = plan_and_run(ghz, Observable::x_all(5), pcfg, CutRunConfig{});
  ASSERT_EQ(first.plan->cuts.size(), 1u);

  const PlannedExecutor exec(ghz, *first.plan);
  Real acc = 0.0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    CutRunConfig rcfg;
    rcfg.shots = 0;
    rcfg.seed = 1000 + static_cast<std::uint64_t>(t);
    acc += exec.run(Observable::x_all(5), rcfg).abs_error;
  }
  EXPECT_LE(acc / trials, 1.5 * pcfg.target_accuracy);
}

TEST(PlannedExecutor, RejectsOverflowingPredictedBudget) {
  // κ²/ε² can exceed any 64-bit shot count; the predicted-budget path must
  // fail loudly instead of casting out of range.
  const Circuit ghz = ghz_line(6);
  PlannerConfig pcfg;
  pcfg.max_fragment_width = 3;
  pcfg.target_accuracy = 1e-10;  // κ = 9 → κ²/ε² ≈ 8.1e21
  const CutPlan plan = CutPlanner(ghz, pcfg).plan();
  const PlannedExecutor exec(ghz, plan);
  CutRunConfig rcfg;
  rcfg.shots = 0;
  EXPECT_THROW(exec.run(Observable::x_all(6), rcfg), Error);
  // An explicit shot count keeps working regardless of ε.
  rcfg.shots = 500;
  EXPECT_NO_THROW(exec.run(Observable::x_all(6), rcfg));
}

TEST(PlannedExecutor, ZeroCutPlanRunsDirectly) {
  const Circuit ghz = ghz_line(3);
  PlannerConfig pcfg;
  pcfg.max_fragment_width = 3;
  CutRunConfig rcfg;
  rcfg.shots = 4000;
  const PlannedRunResult res = plan_and_run(ghz, Observable::x_all(3), pcfg, rcfg);
  EXPECT_TRUE(res.plan->cuts.empty());
  EXPECT_NEAR(res.run.exact, 1.0, 1e-10);
  EXPECT_LE(res.run.abs_error, 0.1);  // κ = 1: plain sampling noise only
}

// ---- pinned plans -------------------------------------------------------------
// Every CutPlan field, pinned bit for bit (reals as %.17g): the search's
// output, including nodes_explored, must not move when its implementation
// does.

std::string g17(Real v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string plan_line(const CutPlan& p) {
  std::string s = "o=" + g17(p.total_overhead) + " k=" + g17(p.total_kappa) +
                  " eps=" + g17(p.target_accuracy) + " shots=" + g17(p.predicted_shots) + " |";
  for (const PlannedCut& c : p.cuts) {
    s += c.site.kind == CutKind::kWire ? " w" + std::to_string(c.site.point.after_op) + "." +
                                             std::to_string(c.site.point.qubit)
                                       : " g" + std::to_string(c.site.op_index);
    s += ":" + std::string(to_string(c.spec.id)) + "(" + g17(c.spec.param) + ")k" +
         g17(c.kappa) + (c.entangled ? "e" : "") + "l" + std::to_string(c.link);
  }
  s += " | fw";
  for (int w : p.fragment_widths) {
    s += " " + std::to_string(w);
  }
  s += " max " + std::to_string(p.max_width) + " | sw";
  for (int w : p.sim_widths) {
    s += " " + std::to_string(w);
  }
  s += " max " + std::to_string(p.max_sim_width) + " | nodes " +
       std::to_string(p.nodes_explored) + (p.budget_exhausted ? " exhausted" : "");
  return s;
}

std::string plan_or_throw(const Circuit& circ, const PlannerConfig& cfg) {
  try {
    return plan_line(CutPlanner(circ, cfg).plan());
  } catch (const Error&) {
    return "throws";
  }
}

TEST(CutPlannerPins, GridPlansArePinned) {
  // The 240-config grid: hwe_ansatz_8 and GHZ-8/12/16 lines x caps 3-6 x
  // pair budgets 0-4 x overlaps {0.6, 0.9, 1.0}, one digest per circuit
  // over its 60 plan lines (printed on a mismatch).
  struct GridPin {
    const char* name;
    Circuit circ;
    std::uint64_t digest;
  };
  const GridPin pins[] = {
      {"hwe_ansatz_8",
       import_qasm_file(std::string(QCUT_QASM_CORPUS_DIR) + "/hwe_ansatz_8.qasm"),
       0xd73335f561ad64e6ull},
      {"ghz_8", ghz_line(8), 0xc0386d534e7f4e77ull},
      {"ghz_12", ghz_line(12), 0xdfb62925d3afbef0ull},
      {"ghz_16", ghz_line(16), 0x301419f057d08fd6ull},
  };
  for (const GridPin& pin : pins) {
    std::string lines;
    for (int cap = 3; cap <= 6; ++cap) {
      for (int budget = 0; budget <= 4; ++budget) {
        for (Real f : {0.6, 0.9, 1.0}) {
          PlannerConfig cfg;
          cfg.max_fragment_width = cap;
          cfg.pair_budget = budget;
          cfg.resource_overlap = f;
          lines += "cap " + std::to_string(cap) + " budget " + std::to_string(budget) + " f " +
                   g17(f) + ": " + plan_or_throw(pin.circ, cfg) + "\n";
        }
      }
    }
    char digest[32];
    std::snprintf(digest, sizeof digest, "0x%016" PRIx64 "ull", testing::fnv64(lines));
    EXPECT_EQ(testing::fnv64(lines), pin.digest) << pin.name << " digest " << digest << "\n"
                                                 << lines;
  }
}

TEST(CutPlannerPins, BenchClassPlansArePinned) {
  // The end-to-end benchmark's six request classes, on its request shapes.
  struct ClassPin {
    testing::BenchShape shape;
    int cap;
    int budget;
    Real f;
    const char* line;
  };
  const ClassPin pins[] = {
      {testing::BenchShape::kGhz30, 16, 0, 0.5,
       "o=9 k=3 eps=0.050000000000000003 shots=3599.9999999999991 | "
       "w16.14:harada(0)k3l-1 | fw 16 15 max 16 | sw 16 15 max 16 | nodes 1767"},
      {testing::BenchShape::kBrick30, 16, 0, 0.5,
       "o=9 k=3 eps=0.050000000000000003 shots=3599.9999999999991 | "
       "w38.14:harada(0)k3l-1 | fw 16 15 max 16 | sw 16 15 max 16 | nodes 26823"},
      {testing::BenchShape::kGhz8, 3, 0, 0.5,
       "o=729 k=27 eps=0.050000000000000003 shots=291599.99999999994 | "
       "w3.1:harada(0)k3l-1 w5.3:harada(0)k3l-1 w7.5:harada(0)k3l-1 | "
       "fw 3 3 3 2 max 3 | sw 3 3 3 2 max 3 | nodes 256"},
      {testing::BenchShape::kHwe8, 4, 0, 0.5,
       "o=81 k=9 eps=0.050000000000000003 shots=32399.999999999993 | "
       "w3.1:harada(0)k3l-1 w9.4:harada(0)k3l-1 | fw 4 4 2 max 4 | sw 4 4 2 max 4 | "
       "nodes 1082"},
      {testing::BenchShape::kHwe8, 6, 2, 0.9,
       "o=1.4938271604938274 k=1.2222222222222223 eps=0.050000000000000003 "
       "shots=597.53086419753083 | "
       "w6.2:nme(0.50000000000000011)k1.2222222222222223el0 | fw 6 3 max 6 | "
       "sw 10 max 10 | nodes 266"},
      {testing::BenchShape::kHwe8, 5, 0, 0.5,
       "o=9 k=3 eps=0.050000000000000003 shots=3599.9999999999991 | "
       "w6.3:harada(0)k3l-1 | fw 5 4 max 5 | sw 5 4 max 5 | nodes 350"},
  };
  for (const ClassPin& pin : pins) {
    const Circuit circ =
        strip_trailing_measurements(import_qasm(testing::bench_shape_qasm(pin.shape)));
    PlannerConfig cfg;
    cfg.max_fragment_width = pin.cap;
    cfg.pair_budget = pin.budget;
    cfg.resource_overlap = pin.f;
    EXPECT_EQ(plan_or_throw(circ, cfg), pin.line) << "cap " << pin.cap;
  }
}

}  // namespace
}  // namespace qcut
