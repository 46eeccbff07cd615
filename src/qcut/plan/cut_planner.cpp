#include "qcut/plan/cut_planner.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>

#include "qcut/common/cancel.hpp"
#include "qcut/common/single_flight_cache.hpp"
#include "qcut/common/union_find.hpp"
#include "qcut/core/cut_executor.hpp"
#include "qcut/core/overhead.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/obs/trace.hpp"
#include "qcut/sim/statevector.hpp"

namespace qcut {

namespace {

constexpr Real kHalfTol = 1e-12;
constexpr Real kKappaTol = 1e-12;

}  // namespace

MergeProfile spec_merge_profile(const ProtocolSpec& spec) {
  // Bounded: specs come from request configs, and an entry is a few words.
  static SingleFlightCache<const MergeProfile> profiles(256);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &spec.param, sizeof bits);
  const std::string key = std::to_string(static_cast<int>(spec.id)) + ":" + std::to_string(bits);
  bool hit = false;
  return *profiles.get_or_build(
      key, [&] { return std::make_shared<const MergeProfile>(merge_profile(*make_protocol(spec))); },
      &hit);
}

std::vector<CutPoint> CutPlan::points() const {
  std::vector<CutPoint> out;
  for (const PlannedCut& c : cuts) {
    if (c.site.kind == CutKind::kWire) {
      out.push_back(c.site.point);
    }
  }
  return out;
}

std::vector<CutSite> CutPlan::sites() const {
  std::vector<CutSite> out;
  out.reserve(cuts.size());
  for (const PlannedCut& c : cuts) {
    out.push_back(c.site);
  }
  return out;
}

std::size_t CutPlan::gate_cut_count() const {
  std::size_t n = 0;
  for (const PlannedCut& c : cuts) {
    n += c.site.kind == CutKind::kGate ? 1 : 0;
  }
  return n;
}

std::string CutPlan::to_string() const {
  std::ostringstream os;
  os << "CutPlan: " << cuts.size() << " cut(s), total kappa " << total_kappa
     << ", overhead factor " << total_overhead << "\n";
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    const PlannedCut& c = cuts[i];
    if (c.site.kind == CutKind::kWire) {
      os << "  cut " << i << ": wire " << c.site.point.qubit << " after op "
         << c.site.point.after_op;
    } else {
      os << "  cut " << i << ": gate at op " << c.site.op_index;
    }
    os << "  protocol=" << qcut::to_string(c.spec);
    if (c.entangled) {
      os << " (1 pair/sample";
      if (c.link >= 0) {
        os << ", link " << c.link;
      }
      os << ")";
    }
    os << "  kappa=" << c.kappa << "\n";
  }
  os << "  fragment widths:";
  for (int w : fragment_widths) {
    os << " " << w;
  }
  os << " (max " << max_width << ")\n";
  os << "  merged sim widths:";
  for (int w : sim_widths) {
    os << " " << w;
  }
  os << " (max " << max_sim_width << ")\n";
  os << "  predicted shots for eps=" << target_accuracy << ": " << predicted_shots << "\n";
  return os.str();
}

CutPlanner::CutPlanner(const Circuit& circ, PlannerConfig cfg)
    : circ_(circ), graph_(circ_), cfg_(cfg) {
  if (cfg_.max_fragment_width == 0) {
    // Defaulted cap = the simulation engine's ceiling. A plan the planner
    // accepts must be a plan the fragment evaluator can actually run.
    cfg_.max_fragment_width = Statevector::kMaxQubits;
  }
  sim_cap_ = Statevector::kMaxQubits;
  QCUT_CHECK(cfg_.max_fragment_width >= 1, "CutPlanner: max_fragment_width must be >= 1");
  QCUT_CHECK(cfg_.resource_overlap >= 0.5 - kTightTol && cfg_.resource_overlap <= 1.0 + kTightTol,
             "CutPlanner: resource_overlap must lie in [1/2, 1]");
  QCUT_CHECK(cfg_.pair_budget >= 0, "CutPlanner: pair_budget must be non-negative");
  QCUT_CHECK(cfg_.target_accuracy > 0.0, "CutPlanner: target_accuracy must be positive");

  // Resolve the effective device model: an explicit model wins; otherwise the
  // legacy scalar fields synthesize the homogeneous equivalent.
  model_ = cfg_.device_model.empty()
               ? DeviceModel::homogeneous(cfg_.resource_overlap, cfg_.pair_budget)
               : cfg_.device_model;
  for (const DeviceSpec& d : model_.devices) {
    QCUT_CHECK(d.width_cap >= 1, "CutPlanner: device width_cap must be >= 1");
  }
  for (const LinkSpec& l : model_.links) {
    QCUT_CHECK(l.pair_budget >= 0, "CutPlanner: link pair_budget must be non-negative");
    if (l.family == LinkFamily::kMixed) {
      QCUT_CHECK(l.overlap > 0.25 + kHalfTol && l.overlap <= 1.0 + kTightTol,
                 "CutPlanner: mixed-link identity weight must lie in (1/4, 1]");
    } else {
      QCUT_CHECK(l.overlap >= 0.5 - kTightTol && l.overlap <= 1.0 + kTightTol,
                 "CutPlanner: link overlap must lie in [1/2, 1]");
    }
  }

  // Expand links into per-cut slots, keeping only slots that beat the
  // entanglement-free optimum (κ < 3) — a slot that doesn't is never granted
  // (harada costs the same or less and cannot merge fragments). Slots sort
  // best-κ-first (ties: link order) and at most max_cuts can ever be used.
  for (std::size_t li = 0; li < model_.links.size(); ++li) {
    const LinkSpec& link = model_.links[li];
    if (link.pair_budget <= 0) {
      continue;
    }
    const ProtocolSpec spec = link_protocol_spec(link);
    const Real kappa = spec_kappa(spec);
    if (kappa >= 3.0 - kKappaTol) {
      continue;
    }
    // Merge semantics probed from the protocol itself — the feasibility
    // model and the executor share one source of truth.
    const MergeProfile profile = spec_merge_profile(spec);
    const int copies = std::min<int>(link.pair_budget, static_cast<int>(cfg_.max_cuts));
    for (int c = 0; c < copies; ++c) {
      slots_.push_back(LinkSlot{static_cast<int>(li), spec, kappa, profile});
    }
  }
  std::stable_sort(slots_.begin(), slots_.end(),
                   [](const LinkSlot& a, const LinkSlot& b) { return a.kappa < b.kappa; });
  if (slots_.size() > cfg_.max_cuts) {
    slots_.resize(cfg_.max_cuts);
  }

  if (cfg_.allow_gate_cuts) {
    search_cands_ = graph_.all_candidates();
  } else {
    for (const CutPoint& p : graph_.candidates()) {
      CutCandidate c;
      c.site = CutSite::wire(p);
      search_cands_.push_back(c);
    }
  }
}

Real CutPlanner::bound_factor(std::size_t candidate, std::size_t wires_before) const {
  const CutCandidate& c = search_cands_[candidate];
  Real k = 3.0;
  if (c.site.kind == CutKind::kGate) {
    k = c.gate_kappa;
  } else if (wires_before < slots_.size()) {
    k = slots_[wires_before].kappa;
  }
  return k * k;
}

Real CutPlanner::cost_lower_bound(const std::vector<std::size_t>& subset) const {
  // assign_protocols' overhead with every slot granted, multiplied in the
  // same order with the same `cost *= k * k` steps: equal to it bit for bit
  // when no pair is withheld, and below it otherwise (a withheld slot's
  // κ < 3 becomes harada's 3; rounding is monotone in each factor).
  Real cost = 1.0;
  std::size_t wires = 0;
  for (std::size_t idx : subset) {
    cost *= bound_factor(idx, wires);
    wires += search_cands_[idx].site.kind == CutKind::kWire ? 1 : 0;
  }
  return cost;
}

struct CutPlanner::Scratch {
  std::vector<CutPoint> wire_pts;
  std::vector<std::size_t> gate_ops;
  PartitionScratch partition;
  FragmentPartition part;
  std::vector<int> device_widths;  ///< descending
  UnionFind merged;                ///< fragments united by merging grants
  std::vector<int> comp_width;
  std::vector<int> sim_widths;     ///< descending, at the feasible grant count
};

CutPlanner::Verdict CutPlanner::evaluate(const std::vector<std::size_t>& subset,
                                         Scratch& scratch) const {
  Verdict out;
  scratch.wire_pts.clear();
  scratch.gate_ops.clear();
  for (std::size_t idx : subset) {
    QCUT_CHECK(idx < search_cands_.size(), "assign_protocols: candidate index out of range");
    const CutCandidate& c = search_cands_[idx];
    if (c.site.kind == CutKind::kWire) {
      scratch.wire_pts.push_back(c.site.point);
    } else {
      scratch.gate_ops.push_back(c.site.op_index);
    }
  }

  // Tier 1 — device feasibility: the unmerged fragment widths against the
  // model's caps. Helper/resource qubits are the protocol's business (the
  // entangled resource is physically distributed), so they don't count here.
  const FragmentPartition& part = scratch.part;
  graph_.partition(scratch.wire_pts, scratch.gate_ops, scratch.partition, scratch.part);
  scratch.device_widths.assign(part.widths.begin(), part.widths.end());
  std::sort(scratch.device_widths.begin(), scratch.device_widths.end(), std::greater<int>());
  if (!model_.fits(scratch.device_widths, cfg_.max_fragment_width)) {
    return out;
  }

  // Map each wire cut back to its index among the wire cuts (grant order) and
  // each subset position to its fragment pair.
  const std::size_t w = scratch.wire_pts.size();
  const std::size_t s_max = std::min(w, slots_.size());

  // Tier 2 — simulation feasibility, merge-aware: granting slot i to wire
  // cut i unites the cut's two fragments in the simulator whenever the
  // slot's protocol merges; every entangled cut also contributes its worst
  // branch's helper wires. The all-merge scenario with per-cut max extras
  // dominates every actual QPD term, so checking it once per grant count is
  // sound. Grants go best-slot-to-earliest-cut; when the merged width would
  // exceed the engine cap the planner backs off one pair at a time — the
  // plan is repaired at plan time instead of dying in the exact backend.
  out.tier = Verdict::Tier::kSimulation;
  for (std::size_t s = s_max + 1; s-- > 0;) {
    const std::size_t n_frags = part.widths.size();
    UnionFind& uf = scratch.merged;
    uf.reset(n_frags);
    for (std::size_t i = 0; i < s; ++i) {
      if (slots_[i].profile.merges) {
        const auto& [fs, fr] = part.cut_fragments[i];
        uf.unite(static_cast<std::size_t>(fs), static_cast<std::size_t>(fr));
      }
    }
    std::vector<int>& comp_width = scratch.comp_width;
    comp_width.assign(n_frags, 0);
    for (std::size_t f = 0; f < n_frags; ++f) {
      comp_width[uf.find(f)] += part.widths[f];
    }
    for (std::size_t i = 0; i < s; ++i) {
      const auto& [fs, fr] = part.cut_fragments[i];
      const MergeProfile& mp = slots_[i].profile;
      if (mp.merges) {
        comp_width[uf.find(static_cast<std::size_t>(fs))] += mp.max_extra();
      } else {
        comp_width[uf.find(static_cast<std::size_t>(fs))] += mp.sender_extra;
        comp_width[uf.find(static_cast<std::size_t>(fr))] += mp.receiver_extra;
      }
    }
    std::vector<int>& sim = scratch.sim_widths;
    sim.clear();
    int max_sim = 0;
    for (std::size_t f = 0; f < n_frags; ++f) {
      if (uf.find(f) == f) {
        sim.push_back(comp_width[f]);
        max_sim = std::max(max_sim, comp_width[f]);
      }
    }
    if (max_sim > sim_cap_) {
      continue;  // back off one entangled pair and retry
    }
    std::sort(sim.begin(), sim.end(), std::greater<int>());

    // Feasible at grant count s: wire cuts are granted in subset (time)
    // order, so the earliest cuts take the best slots — the legacy greedy in
    // the homogeneous case. The overhead multiplies the κ² materialize
    // assigns, in the same order.
    out.tier = Verdict::Tier::kFeasible;
    out.grants = s;
    out.overhead = 1.0;
    std::size_t wire_seen = 0;
    for (std::size_t idx : subset) {
      const CutCandidate& c = search_cands_[idx];
      Real kappa = c.gate_kappa;
      if (c.site.kind == CutKind::kWire) {
        kappa = wire_seen < s ? slots_[wire_seen].kappa : 3.0;
        ++wire_seen;
      }
      out.overhead *= kappa * kappa;
    }
    return out;
  }
  return out;
}

ProtocolAssignment CutPlanner::materialize(const std::vector<std::size_t>& subset,
                                           const Verdict& verdict,
                                           const Scratch& scratch) const {
  ProtocolAssignment out;
  out.device_widths = scratch.device_widths;
  if (verdict.tier == Verdict::Tier::kDevice) {
    out.reason = "fragment widths exceed the device model";
    return out;
  }
  if (verdict.tier == Verdict::Tier::kSimulation) {
    std::ostringstream os;
    os << "merged fragment width exceeds the simulation cap (" << sim_cap_
       << " qubits) even with no entangled pairs granted";
    out.reason = os.str();
    return out;
  }
  out.feasible = true;
  out.sim_widths = scratch.sim_widths;
  out.overhead = verdict.overhead;
  std::size_t wire_seen = 0;
  for (std::size_t idx : subset) {
    const CutCandidate& c = search_cands_[idx];
    PlannedCut pc;
    pc.site = c.site;
    if (c.site.kind == CutKind::kGate) {
      pc.spec = ProtocolSpec{ProtocolId::kZzGate, c.gate_theta};
      pc.kappa = c.gate_kappa;
    } else if (wire_seen < verdict.grants) {
      pc.spec = slots_[wire_seen].spec;
      pc.kappa = slots_[wire_seen].kappa;
      pc.entangled = true;
      pc.link = slots_[wire_seen].link;
      ++wire_seen;
    } else {
      pc.spec = ProtocolSpec{ProtocolId::kHarada, 0.0};
      pc.kappa = 3.0;
      ++wire_seen;
    }
    out.cuts.push_back(std::move(pc));
  }
  return out;
}

ProtocolAssignment CutPlanner::assign_protocols(const std::vector<std::size_t>& subset) const {
  Scratch scratch;
  return materialize(subset, evaluate(subset, scratch), scratch);
}

/// Shared DFS over candidate subsets in lexicographic index order. With
/// `prune` false this is the plain exhaustive scan; with it true, the
/// branch-and-bound (slot-aware cost bound; never a width bound — fragment
/// width is not monotone under adding cuts). A friend of CutPlanner, so it
/// builds cost_lower_bound incrementally from bound_factor.
class SubsetSearch {
 public:
  SubsetSearch(const CutPlanner& planner, bool prune)
      : planner_(planner),
        n_cands_(planner.search_candidates().size()),
        max_cuts_(planner.config().max_cuts),
        max_nodes_(planner.config().max_nodes),
        prune_(prune) {}

  void run() { dfs(0, 1.0, 0); }

  bool found() const noexcept { return found_; }
  const ProtocolAssignment& best() const noexcept { return best_; }
  std::size_t nodes() const noexcept { return nodes_; }
  bool budget_exhausted() const noexcept { return aborted_; }

 private:
  void dfs(std::size_t start, Real lb_cost, std::size_t wires) {
    if (aborted_) {
      return;
    }
    if (nodes_ >= max_nodes_) {
      aborted_ = true;
      return;
    }
    // Strided cancellation poll: node expansion is the search's quantum, but
    // per-node polling would dominate tiny nodes — every 64th is plenty (a
    // tripped deadline surfaces within microseconds either way).
    if ((nodes_ & 63u) == 0) {
      cancel_poll();
    }
    ++nodes_;
    // Cost first: lb_cost is cost_lower_bound(current_), which lower-bounds
    // the assignment's overhead, so a node that cannot beat the incumbent
    // never needs the (much more expensive) union-find + protocol assignment
    // — recording only strict improvements makes the skip behavior-identical.
    const bool can_improve = !found_ || lb_cost < best_cost_;
    if (can_improve) {
      const CutPlanner::Verdict v = planner_.evaluate(current_, scratch_);
      if (v.tier == CutPlanner::Verdict::Tier::kFeasible && (!found_ || v.overhead < best_cost_)) {
        found_ = true;
        best_cost_ = v.overhead;
        best_ = planner_.materialize(current_, v, scratch_);
      }
    }
    if (current_.size() >= max_cuts_ || start >= n_cands_) {
      return;
    }
    if (prune_) {
      // Cost bound: extensions append later candidates, which multiply the
      // bound by κ² >= 1, so every strict extension's bound is >= this
      // node's. (No width-based prune: fragment width is NOT monotone under
      // adding cuts — a split segment's halves can reconnect through other
      // wires and grow a component.)
      if (found_ && lb_cost >= best_cost_) {
        return;
      }
    }
    for (std::size_t i = start; i < n_cands_; ++i) {
      const bool wire = planner_.search_candidates()[i].site.kind == CutKind::kWire;
      current_.push_back(i);
      dfs(i + 1, lb_cost * planner_.bound_factor(i, wires), wires + (wire ? 1 : 0));
      current_.pop_back();
    }
  }

  const CutPlanner& planner_;
  std::size_t n_cands_;
  std::size_t max_cuts_;
  std::size_t max_nodes_;
  bool prune_;

  std::vector<std::size_t> current_;
  CutPlanner::Scratch scratch_;  ///< reused by every node's evaluation
  ProtocolAssignment best_;
  Real best_cost_ = std::numeric_limits<Real>::infinity();
  bool found_ = false;
  bool aborted_ = false;
  std::size_t nodes_ = 0;
};

CutPlan CutPlanner::make_plan(const ProtocolAssignment& assign, std::size_t nodes) const {
  CutPlan plan;
  plan.nodes_explored = nodes;
  plan.cuts = assign.cuts;
  for (const PlannedCut& pc : plan.cuts) {
    plan.total_kappa *= pc.kappa;
  }
  plan.total_overhead = plan.total_kappa * plan.total_kappa;
  plan.target_accuracy = cfg_.target_accuracy;
  plan.predicted_shots = shots_for_accuracy(plan.total_kappa, cfg_.target_accuracy);
  plan.fragment_widths = assign.device_widths;
  plan.max_width = plan.fragment_widths.empty() ? 0 : plan.fragment_widths.front();
  plan.sim_widths = assign.sim_widths;
  plan.max_sim_width = plan.sim_widths.empty() ? 0 : plan.sim_widths.front();
  return plan;
}

Real CutPlanner::reference_overhead() const {
  const std::size_t m = search_cands_.size();
  QCUT_CHECK(m <= 20, "reference_overhead: too many candidates for the 2^m scan");
  Real best = -1.0;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << m); ++mask) {
    std::vector<std::size_t> subset;
    for (std::size_t i = 0; i < m; ++i) {
      if ((mask >> i) & 1) {
        subset.push_back(i);
      }
    }
    if (subset.size() > cfg_.max_cuts) {
      continue;
    }
    const ProtocolAssignment assign = assign_protocols(subset);
    if (!assign.feasible) {
      continue;
    }
    if (best < 0.0 || assign.overhead < best) {
      best = assign.overhead;
    }
  }
  return best;
}

CutPlan CutPlanner::plan() const {
  const std::size_t m = search_cands_.size();
  obs::TraceSpan span("plan.search", static_cast<std::uint64_t>(m));
  const int cap = model_.max_cap(cfg_.max_fragment_width);
  // O(1) infeasibility pre-check: a fragment containing a k-qubit op that no
  // cut can sever always holds at least k segments, so no cut set can beat
  // the widest such op — without this, a hopeless width cap would enumerate
  // the entire subset tree before it could throw. Gate cuts sever diagonal
  // two-qubit ops, so allowing them lowers the floor.
  const bool gate_floor = cfg_.allow_gate_cuts && !graph_.gate_candidates().empty();
  if (graph_.min_reachable_width(gate_floor) <= cap) {
    SubsetSearch search(*this, /*prune=*/m > cfg_.exhaustive_limit);
    search.run();
    obs::count(obs::Counter::kPlanNodesExplored, search.nodes());
    if (search.found()) {
      CutPlan plan = make_plan(search.best(), search.nodes());
      plan.budget_exhausted = search.budget_exhausted();
      return plan;
    }
    if (search.budget_exhausted()) {
      std::ostringstream os;
      os << "CutPlanner: search hit max_nodes = " << cfg_.max_nodes
         << " without a feasible cut set (" << model_.describe(cfg_.max_fragment_width) << ", "
         << m << " candidates) — the instance is likely infeasible; raise max_nodes to be sure";
      throw Error(os.str());
    }
  }
  std::ostringstream os;
  os << "CutPlanner: no cut set of <= " << cfg_.max_cuts << " cuts fits the device model ("
     << model_.describe(cfg_.max_fragment_width) << "; widest unseverable op needs "
     << graph_.min_reachable_width(gate_floor) << " qubits; " << m
     << " candidate cuts). Entangled-resource cuts merge both fragments in the simulator (cap "
     << sim_cap_ << " qubits), so pair grants may also have been reduced or rejected.";
  throw Error(os.str());
}

}  // namespace qcut
