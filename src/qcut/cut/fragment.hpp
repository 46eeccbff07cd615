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
// Fragment variants: all the structure above — components, local indices,
// classical-bit roles — depends only on the op *skeleton* of a term (kinds,
// qubit lists, cbits), never on the gadget matrices, and a fragment's ops
// depend only on the branches of the cuts whose gadget wires lie in it. So
// FragmentVariants groups a QPD's (term, fragment) pairs by (skeleton,
// fragment, branches of the cuts touching it): each group is one variant,
// built once from the cut layout (cut/circuit_cutter.hpp) without splicing
// any term, and evaluated once into a fragment table; every term's P(−1) is
// then the recombination of its variants' tables. A variant's evaluation
// simulates the fragment's unconditioned prefix once and re-runs only the
// read-dependent suffix per cross-bit assignment, in index order on the
// calling thread: the exact backend runs distinct variants concurrently, so
// one variant's work stays on one thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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
/// graph. Throws qcut::Error on a term without ops (a factored QPD's).
FragmentSplit split_term(const QpdTerm& term);

/// Rewrites `tf`'s circuit through the gate-fusion passes (sim/fusion.hpp),
/// in place. The unconditioned prefix [0, cond_suffix_begin) and the
/// conditional suffix are fused *separately* — no op may drift across the
/// prefix-caching boundary — and cond_suffix_begin is remapped onto the fused
/// op list. Exact up to float reassociation in the composed 2x2 products;
/// fragment_term_prob_one on a fused split matches the unfused value to
/// ~1e-12. Fuses whatever its width: FragmentVariants calls it only on the
/// fragments that pass fusion_pays.
void fuse_fragment(TermFragment& tf, FusionStats* stats = nullptr);

/// fuse_fragment on every fragment of `split`, whatever its width.
void fuse_split_circuits(FragmentSplit& split, FusionStats* stats = nullptr);

/// One fragment's conditional distribution P_F(write bits, estimate parity |
/// read bits), row-major: entry [ra * row + wp * 2 + parity] for read
/// assignment ra and write pattern wp.
struct FragmentTable {
  std::size_t row = 0;
  std::vector<Real> p;
};

/// Where each fragment's reads and writes sit among a split's cross bits:
/// recombine's loop-invariant positions, computed once per skeleton.
struct CrossPositions {
  std::size_t n_cross = 0;
  std::vector<std::vector<std::size_t>> read_pos;   ///< per fragment
  std::vector<std::vector<std::size_t>> write_pos;  ///< per fragment
};

/// Exact P(outcome = −1) of the term — the parity-one probability of its
/// estimate cbits — computed fragment-locally from `split`: each fragment's
/// table, then the chain-rule recombination over the cross bits. Equal (up
/// to float reassociation ≲ 1e-15) to enumerating the whole spliced term
/// circuit, but memory-bounded by split.max_width instead of the spliced
/// width.
///
/// A fragment's table is one evaluation: the unconditioned prefix is
/// simulated once, then each read assignment's (fragment, read-assignment)
/// work unit continues it through the read-dependent suffix, in index order
/// on the calling thread. The last unit takes the prefix by move after the
/// others have copied it, so the branch states alive at once are the prefix
/// plus one unit's branches, each at most 2^width amplitudes.
Real fragment_term_prob_one(const FragmentSplit& split);

/// A QPD's (term, fragment) pairs grouped into fragment variants, each
/// evaluated once. With the QPD's cut layout, terms whose branches agree in
/// structure share a skeleton (built once from one term's emitted ops), and
/// a variant is keyed by (skeleton, fragment, branch of every cut whose
/// gadget wires lie in the fragment); its op list is the emission of its
/// first term restricted to the fragment, which is op for op what
/// split_term cuts from any of its terms spliced. A QPD without a layout
/// (hand-built, multi-wire products) gets one skeleton per term and one
/// variant per (term, fragment), from split_term. Construction checks every
/// fragment against the statevector cap and the recombination limits.
class FragmentVariants {
 public:
  explicit FragmentVariants(const Qpd& qpd);

  std::size_t size() const noexcept { return variants_.size(); }

  /// The terms, ascending, whose fragments include a variant no earlier term
  /// has.
  const std::vector<std::size_t>& introducing_terms() const noexcept { return introducing_; }

  /// Builds the variants `term` introduces, in fragment order, fuses those
  /// that pass sim/fusion.hpp's width rule and evaluates each into
  /// `tables[variant]` (sized size()). Calls for distinct terms write
  /// distinct entries, so they may run concurrently.
  void evaluate_new(std::size_t term, std::vector<FragmentTable>& tables) const;

  /// Every term's P(−1), in term order, from the variants' tables.
  std::vector<Real> recombine_all(const std::vector<FragmentTable>& tables) const;

  /// `term`'s fragments as its variants are built, unfused: each from the
  /// term that introduced it.
  FragmentSplit split(std::size_t term) const;

 private:
  /// The terms that share one skeleton.
  struct Group {
    SplitSkeleton skel;
    CrossPositions pos;
    /// Per fragment: the cuts whose gadget wires lie in it (a layout's QPD
    /// only), and per mixed-radix code of their branches, the variant.
    std::vector<std::vector<std::size_t>> cuts_of;
    std::vector<std::vector<std::size_t>> slots;
  };
  struct Variant {
    std::size_t term;      ///< the term that introduced it
    std::size_t fragment;  ///< its fragment index in that term's skeleton
  };

  /// Builds `term`'s fragments f with want[f] into out[f].
  void build(std::size_t term, const std::vector<char>& want, std::vector<TermFragment>& out) const;
  std::size_t variant(std::size_t term, std::size_t fragment) const {
    return term_variants_[first_[term] + fragment];
  }

  const Qpd* qpd_;
  std::vector<Group> groups_;
  std::vector<std::size_t> group_of_;      ///< per term
  std::vector<std::size_t> first_;         ///< per term: offset into term_variants_
  std::vector<std::size_t> term_variants_;  ///< per (term, fragment): its variant
  std::vector<Variant> variants_;
  std::vector<std::size_t> introducing_;
};

}  // namespace qcut
