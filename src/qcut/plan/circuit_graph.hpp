// Circuit analysis for the cut planner: the qubit-interaction timeline of a
// Circuit, the candidate cut locations (wire AND gate cuts), and the fragment
// partition a cut set induces.
//
// Model: cutting wire q at position t splits q's timeline into a sender
// segment (ops before t) and a receiver segment (ops from t on). Wire
// segments are the vertices of the fragment graph; every multi-qubit op
// connects the segments its qubits occupy at that moment — except ops
// removed by a gate cut, whose QPD branches are fully local and therefore
// sever the interaction without splitting either wire. A fragment is a
// connected component, and its width — the number of segments it contains —
// is the physical qubit count a device needs to run it (gadget helper or
// resource qubits are the protocol's business, not the partition's).
#pragma once

#include <cstddef>
#include <vector>

#include "qcut/common/union_find.hpp"
#include "qcut/cut/circuit_cutter.hpp"
#include "qcut/sim/circuit.hpp"

namespace qcut {

/// A gate-cuttable op: a two-qubit diagonal unitary (A ⊗ B)·e^{iθ Z⊗Z},
/// cut by the Mitarai–Fujii QPD at κ = 1 + 2|sin 2θ| <= 3.
struct GateCandidate {
  std::size_t op_index = 0;
  Real theta = 0.0;  ///< the entangling angle of the factorization
  Real kappa = 1.0;  ///< 1 + 2|sin 2θ|
};

/// One entry of the unified candidate list: a wire-cut location or a
/// gate-cuttable op.
struct CutCandidate {
  CutSite site;
  Real gate_theta = 0.0;  ///< gate candidates only
  Real gate_kappa = 1.0;  ///< gate candidates only: κ(θ), fixed per candidate
};

/// The fragment partition induced by a cut set, with enough structure for
/// merge-aware feasibility: per-fragment widths plus, for every wire cut,
/// the fragments its sender and receiver segments landed in (an
/// entangled-resource protocol on that cut merges the two at run time).
struct FragmentPartition {
  std::vector<int> widths;  ///< per fragment id, unsorted
  /// Per input wire cut (same order): (sender fragment id, receiver
  /// fragment id). Duplicate cut positions map to the same pair.
  std::vector<std::pair<int, int>> cut_fragments;

  std::vector<int> widths_desc() const;
  int max_width() const;
};

/// Reusable working buffers of CircuitGraph::partition: a search that
/// partitions once per node keeps one, so no node allocates.
struct PartitionScratch {
  std::vector<std::vector<std::size_t>> per_wire;  ///< sorted cut positions per wire
  std::vector<std::size_t> seg_base;               ///< first segment id per wire
  std::vector<char> severed;                       ///< per op: removed by a gate cut
  UnionFind segments;
  std::vector<int> frag_of_root;                   ///< segment root -> fragment id
};

class CircuitGraph {
 public:
  /// Analyzes `circ` (unitary/initialize ops only). The circuit must outlive
  /// the graph.
  explicit CircuitGraph(const Circuit& circ);

  const Circuit& circuit() const noexcept { return *circ_; }
  int n_qubits() const noexcept { return circ_->n_qubits(); }

  /// The canonical candidate wire-cut locations: one CutPoint per gap between
  /// two consecutive ops on a wire, placed directly after the earlier op (any
  /// other position inside the gap yields the identical partition). Gaps
  /// before a wire's first op or after its last are excluded — cutting there
  /// can never separate anything — and so are gaps feeding into an
  /// initialize, which would discard the teleported state (the cutter's
  /// dead-cut rule). Ordered by (after_op, qubit).
  const std::vector<CutPoint>& candidates() const noexcept { return candidates_; }

  /// The gate-cuttable ops: two-qubit unitaries with a diagonal matrix (up to
  /// the factorization's locals). Ordered by op index.
  const std::vector<GateCandidate>& gate_candidates() const noexcept { return gate_candidates_; }

  /// The unified candidate list the planner searches: all wire candidates
  /// (in candidates() order), then all gate candidates (by op index).
  const std::vector<CutCandidate>& all_candidates() const noexcept { return all_candidates_; }

  /// The fragment partition induced by `wire_cuts` (any positions, not just
  /// candidates) with the ops in `gate_cut_ops` severed (their qubits not
  /// united). Wires without any op count as width-1 fragments of their own.
  FragmentPartition partition(const std::vector<CutPoint>& wire_cuts,
                              const std::vector<std::size_t>& gate_cut_ops) const;
  /// As above, into `out`, working in `scratch` (both reused across calls).
  void partition(const std::vector<CutPoint>& wire_cuts,
                 const std::vector<std::size_t>& gate_cut_ops, PartitionScratch& scratch,
                 FragmentPartition& out) const;

  /// Widths of the fragments induced by `cuts`, sorted descending (wire cuts
  /// only — the pre-gate-cut API).
  std::vector<int> fragment_widths(const std::vector<CutPoint>& cuts) const;

  /// max(fragment_widths(cuts)).
  int max_fragment_width(const std::vector<CutPoint>& cuts) const;

  /// The smallest width any cut set could reach: the widest op no cut can
  /// sever. Wire cuts never split a single op, so without gate cuts this is
  /// the widest op; with gate cuts, gate-cuttable ops are severable and only
  /// the rest count. Floor for the planner's feasibility pre-check.
  int min_reachable_width(bool with_gate_cuts = false) const noexcept {
    return with_gate_cuts ? min_reachable_width_gate_ : min_reachable_width_;
  }

 private:
  const Circuit* circ_;
  std::vector<CutPoint> candidates_;
  std::vector<GateCandidate> gate_candidates_;
  std::vector<CutCandidate> all_candidates_;
  int min_reachable_width_ = 1;
  int min_reachable_width_gate_ = 1;
};

}  // namespace qcut
