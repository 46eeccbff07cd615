// The automatic cut planner: given a circuit and a device model (width caps
// plus entangled-link budgets), find the cut set minimizing the total
// sampling overhead Π κ_i² (Theorem 1 / Corollary 1 give κ_i per wire cut as
// a function of the resource overlap f; Mitarai–Fujii gives κ = 1 + 2|sin 2θ|
// per gate cut) and report the predicted shot cost for a target accuracy
// (N ≈ κ²/ε², Temme et al.).
//
// Candidates are unified (CircuitGraph::all_candidates): every wire-cut gap
// and every gate-cuttable (diagonal two-qubit) op. Protocol selection per
// subset is deterministic (assign_protocols): gate cuts carry their fixed
// κ(θ); wire cuts default to the entanglement-free optimum (κ = 3) and the
// best link slots (κ < 3) are granted to the earliest wire cuts, backing off
// slots when the merge-aware width check fails.
//
// Feasibility is two-tier:
//   * device: the unmerged fragment widths must fit the DeviceModel — each
//     fragment runs on one QPU, and the entangled resource is physically
//     distributed, so helper qubits stay the protocol's business;
//   * simulation: entangled-resource protocols (nme/distill/mixed) splice an
//     initialize spanning both sides of the cut, merging the two fragments in
//     the simulator. The merged component width — fragment widths plus the
//     protocols' helper extras (merge_profile) — must fit the statevector
//     engine. Plans that would previously die in the exact backend's
//     width check at run time are now rejected (or repaired, by granting
//     fewer/no pairs) at plan time.
//
// Search: subsets of the candidates. Small candidate sets are scanned
// exhaustively; larger ones run a depth-first branch-and-bound whose cost
// bound is slot-aware (cost_lower_bound): in subset order a gate cut charges
// its κ(θ)², the w-th wire cut charges slot w's κ² while a slot is left, and
// every later wire cut charges harada's 3² = 9. The bound is admissible:
// assign_protocols grants slots best-first to the earliest wire cuts, every
// kept slot has κ < 3, and a back-off only swaps a slot for harada — so the
// bound never exceeds the overhead, and equals it bit for bit when no pair
// is withheld (both multiply the same κ² sequence in the same order). Each
// added cut multiplies the bound by κ² >= 1, so it is monotone down the
// tree. Fragment width is deliberately NOT used as a bound: it is not
// monotone under adding cuts. Ties in cost resolve to the first subset in
// lexicographic candidate order, so the result is deterministic and
// brute-force reproducible.
//
// Cost. Construction and search are the second serial stage of every
// request. A link's merge semantics are probed once per ProtocolSpec per
// process (spec_merge_profile), not once per planner. A search node that
// passes the bound runs evaluate(): partition and grant check in buffers the
// search owns, with no allocation; only a node that improves the incumbent
// materializes its cuts. assign_protocols is evaluate + materialize, so the
// search and the brute-force oracle share one cost model.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "qcut/plan/circuit_graph.hpp"
#include "qcut/plan/device_model.hpp"

namespace qcut {

struct PlannerConfig {
  /// Uniform fragment-width cap when `device_model` declares no devices.
  /// 0 (the default) resolves to the simulation engine's ceiling
  /// (Statevector::kMaxQubits): a plan the planner accepts must be a plan
  /// the fragment evaluator can run.
  int max_fragment_width = 0;
  /// Legacy scalar link config, used only when `device_model` is empty:
  /// maximal overlap f = ⟨Φ|ρ|Φ⟩ of the NME resource pairs the hardware can
  /// share, in [1/2, 1]. f = 1/2 means no useful entanglement.
  Real resource_overlap = 0.5;
  /// Legacy scalar link config, used only when `device_model` is empty: how
  /// many cuts may each consume one NME pair per QPD sample.
  int pair_budget = 0;
  /// The hardware model. Empty (default): synthesized from the scalar fields
  /// above — a uniform cap of `max_fragment_width` plus one NME link of
  /// `pair_budget` slots at `resource_overlap`.
  DeviceModel device_model;
  /// Enumerate gate-cut candidates alongside wire cuts.
  bool allow_gate_cuts = true;
  /// Target absolute accuracy ε for the predicted shot budget.
  Real target_accuracy = 0.05;
  /// Search depth cap (more cuts than this are never considered).
  std::size_t max_cuts = 8;
  /// Candidate counts up to this limit use the exhaustive subset scan;
  /// beyond it the branch-and-bound search runs.
  std::size_t exhaustive_limit = 12;
  /// Hard cap on search-tree nodes. The min_reachable_width pre-check cannot
  /// detect every infeasible instance (width is not monotone), and a hopeless
  /// cap would otherwise enumerate Σ_k C(m, k) subsets before throwing. When
  /// the budget runs out, the best feasible set found so far is returned
  /// (plan.budget_exhausted = true); with none found, plan() throws.
  std::size_t max_nodes = 1000000;
};

/// One cut of the final plan, with its assigned protocol.
struct PlannedCut {
  CutSite site;             ///< wire location or gate-cut op
  ProtocolSpec spec;        ///< typed protocol descriptor (make_protocol input)
  Real kappa = 1.0;         ///< per-cut sampling overhead κ_i
  bool entangled = false;   ///< consumes one resource pair per sample
  int link = -1;            ///< index into the model's links (entangled only)

  /// Wire cuts only: the cut location.
  const CutPoint& point() const noexcept { return site.point; }
};

/// The deterministic protocol assignment for one candidate subset — the
/// shared cost model of the DFS search and the brute-force oracle.
struct ProtocolAssignment {
  bool feasible = false;
  std::string reason;                ///< infeasibility diagnostic
  std::vector<PlannedCut> cuts;      ///< candidate order (time-ordered)
  Real overhead = 0.0;               ///< Π κ_i² (feasible only)
  std::vector<int> device_widths;    ///< unmerged fragment widths, descending
  std::vector<int> sim_widths;       ///< merged widths + helper extras, desc
};

struct CutPlan {
  std::vector<PlannedCut> cuts;        ///< time-ordered
  Real total_kappa = 1.0;              ///< Π κ_i
  Real total_overhead = 1.0;           ///< Π κ_i² (shot-cost inflation)
  Real target_accuracy = 0.0;          ///< ε the prediction is for
  Real predicted_shots = 0.0;          ///< κ²/ε²
  std::vector<int> fragment_widths;    ///< unmerged (device) widths, descending
  int max_width = 0;
  /// Merged component widths including protocol helper extras, descending —
  /// what the exact backend's fragment evaluation will actually hold.
  /// Entangled cuts merge their two fragments; without entangled cuts these
  /// equal fragment_widths.
  std::vector<int> sim_widths;
  int max_sim_width = 0;
  std::size_t nodes_explored = 0;      ///< search-tree nodes visited
  /// True when the search stopped at PlannerConfig::max_nodes: the plan is
  /// the best feasible set found, not necessarily the global optimum.
  bool budget_exhausted = false;

  /// The wire-cut locations (gate cuts excluded).
  std::vector<CutPoint> points() const;
  /// All cut sites, plan order.
  std::vector<CutSite> sites() const;
  /// Number of gate cuts in the plan.
  std::size_t gate_cut_count() const;
  /// Multi-line human-readable report.
  std::string to_string() const;
};

/// merge_profile(*make_protocol(spec)), memoized per spec (the protocol id
/// plus the parameter's bit pattern): the probe stays the single source of
/// truth for merge semantics, but runs once per spec per process.
MergeProfile spec_merge_profile(const ProtocolSpec& spec);

class CutPlanner {
 public:
  /// Keeps its own copy of the circuit, so the planner is self-contained
  /// (temporaries are fine). Non-copyable: the analysis references the copy.
  CutPlanner(const Circuit& circ, PlannerConfig cfg);

  CutPlanner(const CutPlanner&) = delete;
  CutPlanner& operator=(const CutPlanner&) = delete;

  const CircuitGraph& graph() const noexcept { return graph_; }
  const PlannerConfig& config() const noexcept { return cfg_; }
  const DeviceModel& model() const noexcept { return model_; }

  /// The candidate list the search runs over: all_candidates() when gate
  /// cuts are allowed (and exist), else the wire candidates.
  const std::vector<CutCandidate>& search_candidates() const noexcept { return search_cands_; }

  /// The deterministic protocol assignment (and two-tier feasibility
  /// verdict) for a subset of search_candidates(), by increasing index.
  /// Exposed so tests can brute-force the identical cost model.
  ProtocolAssignment assign_protocols(const std::vector<std::size_t>& subset) const;

  /// Runs the search. Throws qcut::Error when no cut set within max_cuts
  /// satisfies the device model and the merge-aware simulation bound.
  CutPlan plan() const;

  /// Validation oracle, independent of plan()'s DFS: bitmask-enumerates ALL
  /// candidate subsets (2^m — requires m <= 20 candidates) and returns the
  /// minimal feasible Π κ_i² under assign_protocols, or -1 when no subset is
  /// feasible. The bench's optimality gate; tests pin plan() against their
  /// own copy of this scan.
  Real reference_overhead() const;

  /// The branch-and-bound cost bound: assign_protocols' overhead with every
  /// slot granted and no back-off (gate cuts κ(θ)², the w-th wire cut slot
  /// w's κ² while slots last, later wire cuts 9), multiplied in subset order.
  /// Never exceeds assign_protocols(subset).overhead for a feasible subset,
  /// and equals it exactly when min(wire cuts, slots) pairs are granted.
  Real cost_lower_bound(const std::vector<std::size_t>& subset) const;

 private:
  /// One granted entangled-link slot, κ-sorted best first.
  struct LinkSlot {
    int link = -1;
    ProtocolSpec spec;
    Real kappa = 3.0;
    MergeProfile profile;
  };

  /// Working buffers of one subset evaluation (defined in the .cpp).
  struct Scratch;

  /// assign_protocols' verdict without the materialized cuts: which tier
  /// rejected the subset, or the grant count and Π κ_i².
  struct Verdict {
    enum class Tier { kDevice, kSimulation, kFeasible } tier = Tier::kDevice;
    std::size_t grants = 0;
    Real overhead = 0.0;
  };

  /// Partitions `subset` and decides feasibility and grants in `scratch`,
  /// which then holds the device and simulation widths (descending).
  Verdict evaluate(const std::vector<std::size_t>& subset, Scratch& scratch) const;
  /// The ProtocolAssignment of an evaluated subset.
  ProtocolAssignment materialize(const std::vector<std::size_t>& subset, const Verdict& verdict,
                                 const Scratch& scratch) const;

  CutPlan make_plan(const ProtocolAssignment& assign, std::size_t nodes) const;

  /// The κ² candidate `candidate` contributes to cost_lower_bound when
  /// `wires_before` wire cuts precede it in the subset. The search applies
  /// it incrementally, one appended candidate at a time.
  Real bound_factor(std::size_t candidate, std::size_t wires_before) const;
  friend class SubsetSearch;

  Circuit circ_;       ///< owned copy; graph_ points into it
  CircuitGraph graph_;
  PlannerConfig cfg_;
  DeviceModel model_;  ///< effective model (legacy scalars resolved)
  std::vector<CutCandidate> search_cands_;
  std::vector<LinkSlot> slots_;  ///< useful (κ < 3) slots, best first
  int sim_cap_ = 0;              ///< Statevector::kMaxQubits
};

}  // namespace qcut
