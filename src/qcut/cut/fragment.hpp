// Fragment extraction: split one QPD term's spliced circuit into
// independently simulable sub-circuits, so a cut circuit's execution cost is
// bounded by the widest *fragment*, not the total spliced width.
//
// Model: the wire-cut gadgets couple the two sides of a cut only through
// classical bits — the sender side *measures* (harada / peng measure-and-
// prepare branches, the Bell-measurement half of a teleport) and the receiver
// side *prepares*, via classically controlled gates reading the sender's
// bits. Wires connected by a multi-qubit op must share a device; wires that
// talk only classically need not. A fragment is therefore a connected
// component of the term circuit's qubit-interaction graph, and every op lies
// entirely inside one fragment by construction.
//
// Entangled-resource gadgets (NmeCut / DistillCut) splice a two-qubit
// initialize spanning the sender helper and the receiver wire; that op merges
// the two sides into one component — the split stays *correct*, the fragment
// is just wider (shared entanglement genuinely cannot be simulated by
// classical message passing). Entanglement-free protocols (harada, peng)
// split fully.
//
// Recombination (fragment_term_prob_one): the joint distribution of the
// term's classical bits factorizes over fragments by the chain rule,
//   P(bits) = Π_F P_F(bits_F | cross bits F reads),
// because a fragment's quantum state depends only on its own ops, its own
// measurement outcomes, and the foreign bits its conditional gates read.
// Each factor is one exact branch enumeration of a ≤ max-fragment-width
// statevector (run_branches with the read bits preset); the product is summed
// over assignments of the cross-fragment bits, tracking the estimate-bit
// parity. The full spliced state is never materialized.
//
// Fast path: all the structure above — components, local indices, classical-
// bit roles — depends only on the op *skeleton* of the term circuit (kinds,
// qubit lists, cbits), never on the gadget matrices. All gadget variants of
// one cut plan share that skeleton, so BatchedBranchBackend computes it once
// per structure (SplitSkeletonCache) and per-term splitting reduces to
// replaying ops with remapped qubits. Evaluation then simulates each fragment's
// unconditioned prefix once and re-runs only the read-dependent suffix per
// cross-bit assignment, in index order on the calling thread: the engine
// runs the terms concurrently, so a term's own work stays on one thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qcut/common/single_flight_cache.hpp"
#include "qcut/qpd/qpd.hpp"
#include "qcut/sim/fusion.hpp"

namespace qcut {

/// One independently simulable piece of a QPD term circuit.
struct TermFragment {
  /// The fragment's ops, qubits remapped onto [0, wires.size()). The
  /// classical register keeps the term's full width so cbit indices stay
  /// global across fragments.
  Circuit circuit;
  /// Host wires of the term circuit, ascending: local qubit q is host wire
  /// wires[q].
  std::vector<int> wires;
  /// Foreign cbits this fragment's conditional gates read (ascending): the
  /// cut-boundary *prepare* role.
  std::vector<int> reads;
  /// Own cbits read by other fragments (ascending): the cut-boundary
  /// *measure* role.
  std::vector<int> writes;
  /// The term's estimate cbits measured inside this fragment.
  std::vector<int> estimate_cbits;
  /// First fragment-local op index that reads a cross-fragment bit: ops
  /// before it are identical for every read assignment (the unconditioned
  /// prefix the evaluator simulates once). Equals circuit.size() when the
  /// fragment reads nothing.
  std::size_t cond_suffix_begin = 0;
};

/// A term circuit split into fragments.
struct FragmentSplit {
  std::vector<TermFragment> fragments;
  /// Union of all cross-fragment cbits, ascending.
  std::vector<int> cross_cbits;
  /// Widest fragment — the statevector a device (or the simulator) needs.
  int max_width = 0;
};

/// The term-independent structure of a split: fragment membership, local
/// qubit indices, and classical-bit roles. These depend only on (a) the
/// *set* of multi-qubit interactions (which wires must share a device) and
/// (b) the ordered subsequence of classical events (measure and conditional
/// ops with their cbits) — never on the gadget matrices, 1-qubit gates, or
/// op counts. All gadget variants of one cut plan point that keep the same
/// connectivity and classical protocol therefore share one skeleton.
struct SplitSkeleton {
  int n_qubits = 0;
  int n_cbits = 0;
  std::vector<int> frag_of_wire;             ///< host wire -> fragment id
  std::vector<int> local_index;              ///< host wire -> fragment-local qubit
  std::vector<std::vector<int>> wires_of;    ///< per fragment, ascending
  std::vector<std::vector<int>> reads_of;    ///< per fragment, ascending
  std::vector<std::vector<int>> writes_of;   ///< per fragment, ascending
  std::vector<int> writer_frag;              ///< per cbit; -1 = never written
  std::vector<char> multi_frag_write;        ///< per cbit
  std::vector<int> cross_cbits;              ///< ascending
  int max_width = 0;
};

/// Computes the split skeleton of `c`. Throws qcut::Error for circuits
/// outside the supported classical-coupling structure (a cross-fragment cbit
/// written more than once, written in two fragments, or read before it is
/// written).
SplitSkeleton build_split_skeleton(const Circuit& c);

/// Splits `term`'s circuit into connected components of the qubit-interaction
/// graph. Equivalent to instantiating a freshly built skeleton.
FragmentSplit split_term(const QpdTerm& term);

/// Cheap split: replays `term`'s ops into fragments laid out by `skel`
/// (which must have been built from a circuit with the same structural key —
/// the replay re-checks that every op stays inside one fragment).
FragmentSplit split_term(const QpdTerm& term, const SplitSkeleton& skel);

/// Structural signature: equal keys guarantee interchangeable skeletons. The
/// key encodes register sizes, the sorted-unique multi-qubit interaction
/// sets, and the ordered classical-event subsequence (measure / conditional
/// ops with their wire and cbit). Matrices, init states, single-qubit gates,
/// and op counts are deliberately excluded — they do not affect the split
/// structure, so gadget variants that only differ there share a skeleton.
std::string split_structure_key(const Circuit& c);

/// Split skeletons by split_structure_key. Per run it is unbounded (one plan
/// touches a handful of structures); the service shares one bounded,
/// process-lifetime instance across requests.
using SplitSkeletonCache = SingleFlightCache<const SplitSkeleton>;

/// The skeleton of `c`'s structure, built once per structure even under
/// concurrent lookups. Counts kSkeletonCacheHit / kSkeletonCacheMiss.
std::shared_ptr<const SplitSkeleton> cached_skeleton(SplitSkeletonCache& cache, const Circuit& c);

/// Rewrites `tf`'s circuit through the gate-fusion passes (sim/fusion.hpp),
/// in place. The unconditioned prefix [0, cond_suffix_begin) and the
/// conditional suffix are fused *separately* — no op may drift across the
/// prefix-caching boundary — and cond_suffix_begin is remapped onto the fused
/// op list. Exact up to float reassociation in the composed 2x2 products;
/// fragment_term_prob_one on a fused split matches the unfused value to
/// ~1e-12. Fuses whatever its width: BatchedBranchBackend calls it only on
/// the fragments that pass fusion_pays.
void fuse_fragment(TermFragment& tf, FusionStats* stats = nullptr);

/// fuse_fragment on every fragment of `split`, whatever its width.
void fuse_split_circuits(FragmentSplit& split, FusionStats* stats = nullptr);

/// Exact P(outcome = −1) of the term — the parity-one probability of its
/// estimate cbits — computed fragment-locally from `split`. Equal (up to
/// float reassociation ≲ 1e-15) to enumerating the whole spliced term
/// circuit, but memory-bounded by split.max_width instead of the spliced
/// width.
///
/// The evaluator takes one fragment at a time: it simulates the fragment's
/// unconditioned prefix once, then re-runs only the read-dependent suffix per
/// cross-bit assignment. Those (fragment, read-assignment) work units and
/// the recombination's chunks run in index order on the calling thread. The
/// last unit of a fragment takes the prefix by move after the others have
/// copied it, so the branch states alive at once are those of one fragment:
/// its prefix plus one unit's branches, each at most 2^width amplitudes.
Real fragment_term_prob_one(const FragmentSplit& split);

}  // namespace qcut
