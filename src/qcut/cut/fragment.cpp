#include "qcut/cut/fragment.hpp"

#include <algorithm>
#include <numeric>

#include "qcut/common/cancel.hpp"
#include "qcut/common/fault.hpp"
#include "qcut/common/union_find.hpp"
#include "qcut/cut/circuit_cutter.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/obs/trace.hpp"
#include "qcut/sim/executor.hpp"
#include "qcut/sim/statevector.hpp"

namespace qcut {

namespace {

void sort_unique(std::vector<int>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

bool contains(const std::vector<int>& sorted, int v) {
  return std::binary_search(sorted.begin(), sorted.end(), v);
}

/// What the skeleton reads of an op: its kind, host qubits and cbit.
struct OpShape {
  OpKind kind;
  QubitList qubits;
  int cbit;
};

/// Folds one fragment's final branches into its table row for read
/// assignment `ra`, using hoisted cbit positions.
void fold_branches(const std::vector<Branch>& branches, const std::vector<std::size_t>& wr_idx,
                   const std::vector<std::size_t>& est_idx, Real* tab_ra) {
  for (const Branch& b : branches) {
    std::size_t wp = 0;
    for (std::size_t j = 0; j < wr_idx.size(); ++j) {
      wp |= static_cast<std::size_t>(b.cbits[wr_idx[j]] & 1) << j;
    }
    int parity = 0;
    for (const std::size_t e : est_idx) {
      parity ^= b.cbits[e];
    }
    tab_ra[wp * 2 + static_cast<std::size_t>(parity)] += b.prob;
  }
}

/// The trailing-measurement fold: every QPD term circuit ends with a run of
/// Z-basis estimate measurements, and enumerating those one by one doubles
/// (then prunes) branches per measure, copying a full statevector each time.
/// Once ONLY measures remain, the joint outcome distribution is simply the
/// state's basis-probability distribution restricted to the measured qubits,
/// so the whole tail folds in one amplitude sweep per branch. `tail_src` maps
/// each cbit written in the tail to the *last* tail measure's qubit stride
/// (later writes win, matching sequential semantics).
struct TailFold {
  std::size_t tail_begin = 0;  ///< first op of the trailing all-measure run
  /// Per write position j: branch-sourced cbit (idx >= 0) or tail-sourced
  /// basis-index stride.
  std::vector<std::ptrdiff_t> wr_cbit;
  std::vector<std::uint64_t> wr_stride;
  /// Estimate parity: branch-sourced cbits, plus the XOR-combined stride mask
  /// of the tail-sourced bits (XOR, not OR — a qubit feeding two estimate
  /// cbits must cancel out of the parity).
  std::vector<std::size_t> est_cbit;
  std::uint64_t est_mask = 0;
};

TailFold make_tail_fold(const TermFragment& tf) {
  const std::vector<Operation>& ops = tf.circuit.ops();
  TailFold tail;
  tail.tail_begin = ops.size();
  while (tail.tail_begin > 0 && ops[tail.tail_begin - 1].kind == OpKind::kMeasure) {
    --tail.tail_begin;
  }
  const int nq = tf.circuit.n_qubits();
  std::vector<std::ptrdiff_t> src_qubit(static_cast<std::size_t>(tf.circuit.n_cbits()), -1);
  for (std::size_t t = tail.tail_begin; t < ops.size(); ++t) {
    src_qubit[static_cast<std::size_t>(ops[t].cbit)] = ops[t].qubits[0];
  }
  const auto stride_of = [nq](std::ptrdiff_t q) {
    return std::uint64_t{1} << (nq - 1 - static_cast<int>(q));
  };
  for (const int cb : tf.writes) {
    const std::ptrdiff_t q = src_qubit[static_cast<std::size_t>(cb)];
    tail.wr_cbit.push_back(q >= 0 ? -1 : static_cast<std::ptrdiff_t>(cb));
    tail.wr_stride.push_back(q >= 0 ? stride_of(q) : 0);
  }
  for (const int cb : tf.estimate_cbits) {
    const std::ptrdiff_t q = src_qubit[static_cast<std::size_t>(cb)];
    if (q >= 0) {
      tail.est_mask ^= stride_of(q);
    } else {
      tail.est_cbit.push_back(static_cast<std::size_t>(cb));
    }
  }
  return tail;
}

/// Folds branches advanced up to tail.tail_begin, aggregating the trailing
/// measures directly from each branch's amplitudes.
void fold_branches_tail(const std::vector<Branch>& branches, const TailFold& tail,
                        Real* tab_ra) {
  const std::size_t nw = tail.wr_cbit.size();
  for (const Branch& b : branches) {
    std::size_t wp_base = 0;
    std::uint64_t wr_any = 0;
    for (std::size_t j = 0; j < nw; ++j) {
      if (tail.wr_cbit[j] >= 0) {
        wp_base |= static_cast<std::size_t>(
                       b.cbits[static_cast<std::size_t>(tail.wr_cbit[j])] & 1)
                   << j;
      } else {
        wr_any |= tail.wr_stride[j];
      }
    }
    int par_base = 0;
    for (const std::size_t e : tail.est_cbit) {
      par_base ^= b.cbits[e];
    }
    const Vector& amp = b.state.amplitudes();
    if (wr_any == 0) {
      // Common shape: all write bits were measured before the tail; only the
      // estimate parity reads the basis index.
      Real acc0 = 0.0;
      Real acc1 = 0.0;
      for (std::size_t i = 0; i < amp.size(); ++i) {
        const Real w = norm2(amp[i]);
        if (parity64(static_cast<std::uint64_t>(i) & tail.est_mask)) {
          acc1 += w;
        } else {
          acc0 += w;
        }
      }
      tab_ra[wp_base * 2 + static_cast<std::size_t>(par_base)] += b.prob * acc0;
      tab_ra[wp_base * 2 + static_cast<std::size_t>(par_base ^ 1)] += b.prob * acc1;
      continue;
    }
    for (std::size_t i = 0; i < amp.size(); ++i) {
      const Real w = norm2(amp[i]);
      if (w == 0.0) {
        continue;
      }
      std::size_t wp = wp_base;
      for (std::size_t j = 0; j < nw; ++j) {
        if (tail.wr_cbit[j] < 0 && (static_cast<std::uint64_t>(i) & tail.wr_stride[j]) != 0) {
          wp |= std::size_t{1} << j;
        }
      }
      const int par = par_base ^ parity64(static_cast<std::uint64_t>(i) & tail.est_mask);
      tab_ra[wp * 2 + static_cast<std::size_t>(par)] += b.prob * w;
    }
  }
}

/// Chain-rule product over fragments, summed over cross-bit assignments,
/// with a running XOR of the per-fragment estimate parities. The 2^n_cross
/// sigma sweep is chunked at a fixed size and the per-chunk partial sums are
/// combined in chunk index order.
constexpr std::uint64_t kSigmaChunk = 1024;

CrossPositions cross_positions(const std::vector<int>& cross,
                               const std::vector<std::vector<int>>& reads_of,
                               const std::vector<std::vector<int>>& writes_of) {
  const auto pos_of = [&cross](int cbit) {
    return static_cast<std::size_t>(
        std::lower_bound(cross.begin(), cross.end(), cbit) - cross.begin());
  };
  CrossPositions pos;
  pos.n_cross = cross.size();
  pos.read_pos.resize(reads_of.size());
  pos.write_pos.resize(writes_of.size());
  for (std::size_t f = 0; f < reads_of.size(); ++f) {
    for (const int cb : reads_of[f]) {
      pos.read_pos[f].push_back(pos_of(cb));
    }
    for (const int cb : writes_of[f]) {
      pos.write_pos[f].push_back(pos_of(cb));
    }
  }
  return pos;
}

void check_cross_limit(std::size_t n_cross) {
  QCUT_CHECK(n_cross <= 20, "fragment_term_prob_one: too many cross-fragment cbits");
}

std::vector<std::size_t> hoisted_positions(const std::vector<int>& cbits) {
  std::vector<std::size_t> idx;
  idx.reserve(cbits.size());
  for (const int cb : cbits) {
    idx.push_back(static_cast<std::size_t>(cb));
  }
  return idx;
}

/// The split skeleton of a term with `n` qubits and `n_cbits` bits whose ops,
/// in order, are `ops` (Operations or OpShapes).
template <class Op>
SplitSkeleton skeleton_of(int n, int n_cbits, const std::vector<Op>& ops) {
  SplitSkeleton skel;
  skel.n_qubits = n;
  skel.n_cbits = n_cbits;

  // Connected components of the qubit-interaction graph: every multi-qubit op
  // (unitary or entangled-resource initialize alike) merges its wires.
  UnionFind uf(static_cast<std::size_t>(n));
  for (const Op& op : ops) {
    for (std::size_t i = 1; i < op.qubits.size(); ++i) {
      uf.unite(static_cast<std::size_t>(op.qubits[0]), static_cast<std::size_t>(op.qubits[i]));
    }
  }

  // Fragment ids in order of each component's smallest wire; wires ascending.
  std::vector<int> frag_of_root(static_cast<std::size_t>(n), -1);
  skel.frag_of_wire.assign(static_cast<std::size_t>(n), -1);
  skel.local_index.assign(static_cast<std::size_t>(n), -1);
  for (int q = 0; q < n; ++q) {
    const int r = static_cast<int>(uf.find(static_cast<std::size_t>(q)));
    if (frag_of_root[static_cast<std::size_t>(r)] < 0) {
      frag_of_root[static_cast<std::size_t>(r)] = static_cast<int>(skel.wires_of.size());
      skel.wires_of.emplace_back();
    }
    const int f = frag_of_root[static_cast<std::size_t>(r)];
    skel.frag_of_wire[static_cast<std::size_t>(q)] = f;
    skel.local_index[static_cast<std::size_t>(q)] =
        static_cast<int>(skel.wires_of[static_cast<std::size_t>(f)].size());
    skel.wires_of[static_cast<std::size_t>(f)].push_back(q);
  }
  const std::size_t n_frags = skel.wires_of.size();
  for (const auto& wires : skel.wires_of) {
    skel.max_width = std::max(skel.max_width, static_cast<int>(wires.size()));
  }

  // Classical-bit bookkeeping: who writes each cbit (measure) and who reads
  // it (classically controlled gates), in host op order.
  struct CbitInfo {
    int writer_frag = -1;      ///< fragment of the first write, -1 = never written
    int writes = 0;            ///< total measure ops targeting the bit
    std::size_t write_op = 0;  ///< op index of the first write
    bool multi_frag_write = false;
  };
  std::vector<CbitInfo> info(static_cast<std::size_t>(n_cbits));
  struct Read {
    int cbit;
    int frag;
    std::size_t op;
  };
  std::vector<Read> reads;
  for (std::size_t t = 0; t < ops.size(); ++t) {
    const Op& op = ops[t];
    const int f = skel.frag_of_wire[static_cast<std::size_t>(op.qubits[0])];
    if (op.kind == OpKind::kMeasure) {
      CbitInfo& ci = info[static_cast<std::size_t>(op.cbit)];
      if (ci.writes == 0) {
        ci.writer_frag = f;
        ci.write_op = t;
      } else if (ci.writer_frag != f) {
        ci.multi_frag_write = true;
      }
      ++ci.writes;
    } else if (op.kind == OpKind::kCondUnitary) {
      reads.push_back({op.cbit, f, t});
    }
  }
  skel.writer_frag.assign(static_cast<std::size_t>(n_cbits), -1);
  skel.multi_frag_write.assign(static_cast<std::size_t>(n_cbits), 0);
  for (int cb = 0; cb < n_cbits; ++cb) {
    skel.writer_frag[static_cast<std::size_t>(cb)] = info[static_cast<std::size_t>(cb)].writer_frag;
    skel.multi_frag_write[static_cast<std::size_t>(cb)] =
        info[static_cast<std::size_t>(cb)].multi_frag_write ? 1 : 0;
  }

  // Cross-fragment bits: written in one fragment, read in another. The
  // chain-rule recombination fixes one value per cross bit, so it needs the
  // classical protocol structure the gadgets actually emit: a single write
  // that precedes every foreign read.
  skel.reads_of.resize(n_frags);
  skel.writes_of.resize(n_frags);
  for (const Read& rd : reads) {
    const CbitInfo& ci = info[static_cast<std::size_t>(rd.cbit)];
    if (ci.writer_frag < 0 || ci.writer_frag == rd.frag) {
      continue;  // constant-0 bit or purely local feed-forward
    }
    QCUT_CHECK(!ci.multi_frag_write && ci.writes == 1,
               "split_term: cross-fragment cbit written more than once");
    QCUT_CHECK(ci.write_op < rd.op, "split_term: cross-fragment cbit read before written");
    skel.reads_of[static_cast<std::size_t>(rd.frag)].push_back(rd.cbit);
    skel.writes_of[static_cast<std::size_t>(ci.writer_frag)].push_back(rd.cbit);
    skel.cross_cbits.push_back(rd.cbit);
  }
  for (std::size_t f = 0; f < n_frags; ++f) {
    sort_unique(skel.reads_of[f]);
    sort_unique(skel.writes_of[f]);
  }
  sort_unique(skel.cross_cbits);
  return skel;
}

/// An empty fragment f of `skel`: its wires, cross-bit roles and registers.
/// The classical register keeps the term's full width.
TermFragment empty_fragment(const SplitSkeleton& skel, std::size_t f) {
  TermFragment tf;
  tf.wires = skel.wires_of[f];
  tf.reads = skel.reads_of[f];
  tf.writes = skel.writes_of[f];
  tf.circuit = Circuit(static_cast<int>(tf.wires.size()), skel.n_cbits);
  return tf;
}

/// Estimate bits belong to the fragment that measures them; a bit no
/// fragment writes is the constant 0 and drops out of the parity.
void assign_estimate_cbits(const SplitSkeleton& skel, const std::vector<int>& estimate_cbits,
                           const std::vector<TermFragment*>& out) {
  for (const int cb : estimate_cbits) {
    QCUT_CHECK(cb >= 0 && cb < skel.n_cbits, "split_term: estimate cbit out of range");
    const int wf = skel.writer_frag[static_cast<std::size_t>(cb)];
    if (wf < 0) {
      continue;
    }
    QCUT_CHECK(!skel.multi_frag_write[static_cast<std::size_t>(cb)],
               "split_term: estimate cbit written in two fragments");
    if (out[static_cast<std::size_t>(wf)] != nullptr) {
      out[static_cast<std::size_t>(wf)]->estimate_cbits.push_back(cb);
    }
  }
}

/// Replays a term's ops, in order, into the fragments `out` names (null:
/// skipped), qubits remapped to local indices. push_op keeps each op's
/// payload and gate classification — the gadget matrices are never
/// re-inspected. The unconditioned-prefix boundary (first fragment-local op
/// reading a cross bit) depends on the op counts, which differ across
/// gadget variants, so it is found here, not in the skeleton.
class FragmentFiller {
 public:
  FragmentFiller(const SplitSkeleton& skel, std::vector<TermFragment*> out)
      : skel_(skel), out_(std::move(out)), suffix_found_(out_.size(), 0) {}

  /// The fragment of an op on host wires `wires[op.qubits[i]]` (null: the
  /// op's own qubits).
  std::size_t fragment_of(const Operation& op, const int* wires) const {
    return static_cast<std::size_t>(
        skel_.frag_of_wire[static_cast<std::size_t>(host(op, 0, wires))]);
  }

  /// Appends `op`, on host wires as fragment_of reads them and its cbit
  /// shifted by cbit0, to its fragment when that one is wanted.
  void add(const Operation& op, const int* wires, int cbit0) {
    const std::size_t f = fragment_of(op, wires);
    TermFragment* tf = out_[f];
    if (tf == nullptr) {
      return;
    }
    Operation copy = op;
    for (std::size_t i = 0; i < copy.qubits.size(); ++i) {
      const int h = host(op, i, wires);
      // Every op must lie inside one fragment — the cheap structural guard
      // that catches a term instantiated against a foreign skeleton.
      QCUT_CHECK(static_cast<std::size_t>(skel_.frag_of_wire[static_cast<std::size_t>(h)]) == f,
                 "split_term: term interaction structure does not match the skeleton");
      copy.qubits[i] = skel_.local_index[static_cast<std::size_t>(h)];
    }
    if (copy.cbit >= 0) {
      copy.cbit += cbit0;
    }
    if (!suffix_found_[f] && copy.kind == OpKind::kCondUnitary && contains(tf->reads, copy.cbit)) {
      tf->cond_suffix_begin = tf->circuit.size();
      suffix_found_[f] = 1;
    }
    tf->circuit.push_op(std::move(copy));
  }

  /// Closes the fragments that read no cross bit: all prefix.
  void finish() {
    for (std::size_t f = 0; f < out_.size(); ++f) {
      if (out_[f] != nullptr && !suffix_found_[f]) {
        out_[f]->cond_suffix_begin = out_[f]->circuit.size();
      }
    }
  }

 private:
  static int host(const Operation& op, std::size_t i, const int* wires) {
    return wires != nullptr ? wires[op.qubits[i]] : op.qubits[i];
  }

  const SplitSkeleton& skel_;
  std::vector<TermFragment*> out_;
  std::vector<char> suffix_found_;
};

void check_term_has_ops(const QpdTerm& term) {
  QCUT_CHECK(!term.circuit.ops().empty(),
             "split_term: the term has no circuit (a factored QPD's terms carry none; "
             "build the QPD spliced, or evaluate it through FragmentVariants)");
}

}  // namespace

SplitSkeleton build_split_skeleton(const Circuit& c) {
  return skeleton_of(c.n_qubits(), c.n_cbits(), c.ops());
}

namespace {

/// split_term(term) on a given skeleton, built from a circuit of the same
/// structure (the replay re-checks that every op stays inside one fragment).
FragmentSplit split_term(const QpdTerm& term, const SplitSkeleton& skel) {
  check_term_has_ops(term);
  const Circuit& c = term.circuit;
  QCUT_CHECK(c.n_qubits() == skel.n_qubits && c.n_cbits() == skel.n_cbits,
             "split_term: term does not match the skeleton's registers");

  FragmentSplit split;
  split.max_width = skel.max_width;
  split.cross_cbits = skel.cross_cbits;
  const std::size_t n_frags = skel.wires_of.size();
  std::vector<TermFragment*> out(n_frags);
  std::vector<std::size_t> n_ops(n_frags, 0);
  for (std::size_t f = 0; f < n_frags; ++f) {
    split.fragments.push_back(empty_fragment(skel, f));
  }
  for (std::size_t f = 0; f < n_frags; ++f) {
    out[f] = &split.fragments[f];
  }
  assign_estimate_cbits(skel, term.estimate_cbits, out);
  FragmentFiller filler(skel, out);
  for (const Operation& op : c.ops()) {
    ++n_ops[filler.fragment_of(op, nullptr)];
  }
  for (std::size_t f = 0; f < n_frags; ++f) {
    split.fragments[f].circuit.reserve(n_ops[f]);
  }
  for (const Operation& op : c.ops()) {
    filler.add(op, nullptr, 0);
  }
  filler.finish();
  return split;
}

}  // namespace

FragmentSplit split_term(const QpdTerm& term) {
  check_term_has_ops(term);
  return split_term(term, build_split_skeleton(term.circuit));
}

void fuse_fragment(TermFragment& tf, FusionStats* stats) {
  const std::size_t csb = tf.cond_suffix_begin;
  Circuit fused = fuse_range(tf.circuit, 0, csb, stats);
  const std::size_t new_csb = fused.size();
  const Circuit suffix = fuse_range(tf.circuit, csb, tf.circuit.size(), stats);
  for (const Operation& op : suffix.ops()) {
    fused.push_op(op);
  }
  tf.circuit = std::move(fused);
  tf.cond_suffix_begin = new_csb;
}

void fuse_split_circuits(FragmentSplit& split, FusionStats* stats) {
  for (TermFragment& tf : split.fragments) {
    fuse_fragment(tf, stats);
  }
}

namespace {

/// Evaluates `tf` into its table (see fragment_term_prob_one).
FragmentTable fragment_table(const TermFragment& tf) {
  QCUT_CHECK(tf.reads.size() <= 16, "fragment_term_prob_one: fragment reads too many cross bits");
  QCUT_CHECK(tf.circuit.n_qubits() <= Statevector::kMaxQubits,
             "fragment_term_prob_one: fragment wider than the statevector cap");
  const std::size_t r = tf.reads.size();
  const std::size_t n_ra = std::size_t{1} << r;
  FragmentTable tab;
  tab.row = (std::size_t{1} << tf.writes.size()) * 2;
  tab.p.assign(n_ra * tab.row, 0.0);
  const std::vector<std::size_t> wr_idx = hoisted_positions(tf.writes);
  const std::vector<std::size_t> est_idx = hoisted_positions(tf.estimate_cbits);
  const TailFold tail = make_tail_fold(tf);
  const std::size_t prefix_end = std::min(tf.cond_suffix_begin, tail.tail_begin);
  obs::count(obs::Counter::kFragmentUnits, n_ra);
  obs::count(obs::Counter::kFragmentPrefixRuns);

  // (fragment, read assignment) units are the fragment path's cancellation
  // quantum. Per unit, continue `branches`, the fragment's prefix, through
  // the read-dependent suffix with the read bits preset, then fold them into
  // the unit's table row.
  const auto run_unit = [&](std::size_t ra, std::vector<Branch> branches) {
    cancel_poll();
    fault::maybe_inject(fault::Site::kFragmentUnit);
    obs::TraceSpan span("fragment.unit", static_cast<std::uint64_t>(ra));
    if (r > 0) {
      for (Branch& b : branches) {
        for (std::size_t j = 0; j < r; ++j) {
          b.cbits[static_cast<std::size_t>(tf.reads[j])] = static_cast<int>((ra >> j) & 1);
        }
      }
      advance_branches(branches, tf.circuit, prefix_end, tail.tail_begin);
    }
    Real* row = tab.p.data() + ra * tab.row;
    if (tail.tail_begin < tf.circuit.size()) {
      fold_branches_tail(branches, tail, row);
    } else {
      fold_branches(branches, wr_idx, est_idx, row);
    }
  };

  // The unconditioned prefix, simulated once, then the units, the last of
  // which takes the prefix by move after the others have copied it.
  cancel_poll();
  std::vector<Branch> prefix;
  {
    obs::TraceSpan span("fragment.prefix");
    prefix.push_back({1.0, std::vector<int>(static_cast<std::size_t>(tf.circuit.n_cbits()), 0),
                      Statevector(tf.circuit.n_qubits())});
    advance_branches(prefix, tf.circuit, 0, prefix_end);
  }
  for (std::size_t ra = 0; ra + 1 < n_ra; ++ra) {
    run_unit(ra, prefix);
  }
  run_unit(n_ra - 1, std::move(prefix));
  return tab;
}

/// The chain-rule recombination: Σ over cross-bit assignments of the product
/// of the fragments' table entries (`tables[f]` is fragment f's), tracking
/// the estimate parity. Returns P(outcome = −1).
Real recombine(const CrossPositions& pos, const FragmentTable* const* tables) {
  obs::TraceSpan span("fragment.recombine", static_cast<std::uint64_t>(pos.n_cross));
  const std::size_t n_frags = pos.read_pos.size();
  const auto sigma_range = [&](std::uint64_t s0, std::uint64_t s1) {
    Real acc = 0.0;
    for (std::uint64_t sigma = s0; sigma < s1; ++sigma) {
      Real p0 = 1.0;
      Real p1 = 0.0;
      for (std::size_t f = 0; f < n_frags; ++f) {
        std::size_t ra = 0;
        for (std::size_t j = 0; j < pos.read_pos[f].size(); ++j) {
          ra |= static_cast<std::size_t>((sigma >> pos.read_pos[f][j]) & 1) << j;
        }
        std::size_t wp = 0;
        for (std::size_t j = 0; j < pos.write_pos[f].size(); ++j) {
          wp |= static_cast<std::size_t>((sigma >> pos.write_pos[f][j]) & 1) << j;
        }
        const Real* row = tables[f]->p.data() + ra * tables[f]->row;
        const Real f0 = row[wp * 2];
        const Real f1 = row[wp * 2 + 1];
        const Real n0 = p0 * f0 + p1 * f1;
        const Real n1 = p0 * f1 + p1 * f0;
        p0 = n0;
        p1 = n1;
        if (p0 + p1 <= 0.0) {
          break;  // this cross-bit assignment never occurs
        }
      }
      acc += p1;
    }
    return acc;
  };

  const std::uint64_t n_sigma = std::uint64_t{1} << pos.n_cross;
  if (n_sigma <= kSigmaChunk) {
    return sigma_range(0, n_sigma);
  }
  // Both powers of two, so the chunks tile [0, 2^n_cross) exactly.
  Real acc = 0.0;
  for (std::uint64_t s0 = 0; s0 < n_sigma; s0 += kSigmaChunk) {
    acc += sigma_range(s0, s0 + kSigmaChunk);
  }
  return acc;
}

}  // namespace

Real fragment_term_prob_one(const FragmentSplit& split) {
  check_cross_limit(split.cross_cbits.size());
  const std::size_t n_frags = split.fragments.size();
  obs::TraceSpan eval_span("fragment.eval", static_cast<std::uint64_t>(n_frags));
  std::vector<std::vector<int>> reads_of;
  std::vector<std::vector<int>> writes_of;
  for (const TermFragment& tf : split.fragments) {
    reads_of.push_back(tf.reads);
    writes_of.push_back(tf.writes);
  }
  std::vector<FragmentTable> tables;
  std::vector<const FragmentTable*> ptrs;
  tables.reserve(n_frags);
  for (const TermFragment& tf : split.fragments) {
    tables.push_back(fragment_table(tf));
    ptrs.push_back(&tables.back());
  }
  return recombine(cross_positions(split.cross_cbits, reads_of, writes_of), ptrs.data());
}

FragmentVariants::FragmentVariants(const Qpd& qpd) : qpd_(&qpd) {
  QCUT_CHECK(!qpd.empty(), "FragmentVariants: empty QPD");
  const CutLayout* layout = qpd.layout().get();
  QCUT_CHECK(layout != nullptr || qpd.has_term_circuits(),
             "FragmentVariants: a factored QPD needs its layout");
  const std::size_t n_terms = qpd.size();
  const std::size_t n_cuts = layout != nullptr ? layout->cuts.size() : 0;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // A new group's skeleton, from `term`'s emitted ops (or its circuit),
  // checked against the statevector cap and the cross-bit limit
  // (fragment_table checks each fragment's reads).
  const auto add_group = [&](std::size_t term) {
    obs::count(obs::Counter::kSkeletonCacheMiss);
    Group g;
    {
      obs::TraceSpan span("skeleton.build", static_cast<std::uint64_t>(term));
      if (layout == nullptr) {
        g.skel = build_split_skeleton(qpd.terms()[term].circuit);
      } else {
        std::vector<OpShape> shapes;
        emit_term_ops(*layout, term, [&shapes](const Operation& op, const int* wires, int cbit0) {
          OpShape s{op.kind, op.qubits, op.cbit >= 0 ? op.cbit + cbit0 : -1};
          for (int& q : s.qubits) {
            q = wires[q];
          }
          shapes.push_back(s);
        });
        g.skel = skeleton_of(layout->term_qubits[term], layout->term_cbits[term], shapes);
      }
    }
    QCUT_CHECK(g.skel.max_width <= Statevector::kMaxQubits,
               "BatchedBranchBackend: a term fragment exceeds the statevector cap (" +
                   std::to_string(g.skel.max_width) + " > " +
                   std::to_string(Statevector::kMaxQubits) +
                   " qubits) — add cuts, and note that entangled-resource cuts "
                   "(nme/distill) merge both sides into one fragment: wide runs "
                   "need entanglement-free plans (pair_budget = 0)");
    check_cross_limit(g.skel.cross_cbits.size());
    g.pos = cross_positions(g.skel.cross_cbits, g.skel.reads_of, g.skel.writes_of);
    const std::size_t n_frags = g.skel.wires_of.size();
    g.cuts_of.resize(n_frags);
    g.slots.resize(n_frags);
    // A cut's gadget wires: its two canonical wires and its helpers, whose
    // count the group's branch structures fix.
    for (std::size_t j = 0; j < n_cuts; ++j) {
      const CutLayout::Cut& cut = layout->cuts[j];
      std::vector<int> wires = {cut.wire_a, cut.wire_b};
      for (int h = 0; h < layout->branch_of(term, j).extra_qubits; ++h) {
        wires.push_back(layout->helper_base[term * n_cuts + j] + h);
      }
      for (const int w : wires) {
        std::vector<std::size_t>& cuts = g.cuts_of[static_cast<std::size_t>(
            g.skel.frag_of_wire[static_cast<std::size_t>(w)])];
        if (cuts.empty() || cuts.back() != j) {
          cuts.push_back(j);
        }
      }
    }
    for (std::size_t f = 0; f < n_frags; ++f) {
      std::size_t codes = 1;
      for (const std::size_t j : g.cuts_of[f]) {
        codes *= layout->cuts[j].branches.size();
      }
      g.slots[f].assign(codes, kNone);
    }
    groups_.push_back(std::move(g));
  };

  // Terms share a group when every cut's branch has the same structure id;
  // the ids' mixed-radix code names the group.
  std::vector<std::pair<std::size_t, std::size_t>> group_by_code;  // (code, group)
  group_of_.resize(n_terms);
  first_.resize(n_terms);
  for (std::size_t t = 0; t < n_terms; ++t) {
    std::size_t gi = groups_.size();
    if (layout != nullptr) {
      std::size_t code = 0;
      for (std::size_t j = 0; j < n_cuts; ++j) {
        code = code * layout->cuts[j].branches.size() + layout->branch_of(t, j).structure;
      }
      for (const auto& [c, g] : group_by_code) {
        gi = c == code ? g : gi;
      }
      if (gi == groups_.size()) {
        group_by_code.emplace_back(code, gi);
      }
    }
    if (gi == groups_.size()) {
      add_group(t);
    } else {
      obs::count(obs::Counter::kSkeletonCacheHit);
    }
    group_of_[t] = gi;
    first_[t] = term_variants_.size();
    Group& g = groups_[gi];
    bool introduces = false;
    for (std::size_t f = 0; f < g.slots.size(); ++f) {
      std::size_t code = 0;
      for (const std::size_t j : g.cuts_of[f]) {
        code = code * layout->cuts[j].branches.size() + layout->branch[t * n_cuts + j];
      }
      std::size_t& slot = g.slots[f][code];
      if (slot == kNone || layout == nullptr) {
        slot = variants_.size();
        variants_.push_back({t, f});
        introduces = true;
      }
      term_variants_.push_back(slot);
    }
    if (introduces) {
      introducing_.push_back(t);
    }
  }
}

void FragmentVariants::build(std::size_t term, const std::vector<char>& want,
                             std::vector<TermFragment>& out) const {
  obs::TraceSpan span("fragment.split", static_cast<std::uint64_t>(term));
  const Group& g = groups_[group_of_[term]];
  const CutLayout* layout = qpd_->layout().get();
  if (layout == nullptr) {
    FragmentSplit split = split_term(qpd_->terms()[term], g.skel);
    for (std::size_t f = 0; f < want.size(); ++f) {
      if (want[f]) {
        out[f] = std::move(split.fragments[f]);
      }
    }
    return;
  }
  std::vector<TermFragment*> dst(want.size(), nullptr);
  for (std::size_t f = 0; f < want.size(); ++f) {
    if (want[f]) {
      out[f] = empty_fragment(g.skel, f);
      dst[f] = &out[f];
    }
  }
  assign_estimate_cbits(g.skel, qpd_->terms()[term].estimate_cbits, dst);
  FragmentFiller filler(g.skel, dst);
  std::vector<std::size_t> n_ops(want.size(), 0);
  emit_term_ops(*layout, term, [&](const Operation& op, const int* wires, int) {
    ++n_ops[filler.fragment_of(op, wires)];
  });
  for (std::size_t f = 0; f < want.size(); ++f) {
    if (want[f]) {
      out[f].circuit.reserve(n_ops[f]);
    }
  }
  emit_term_ops(*layout, term, [&filler](const Operation& op, const int* wires, int cbit0) {
    filler.add(op, wires, cbit0);
  });
  filler.finish();
}

void FragmentVariants::evaluate_new(std::size_t term, std::vector<FragmentTable>& tables) const {
  const std::size_t n_frags = groups_[group_of_[term]].slots.size();
  std::vector<char> want(n_frags, 0);
  for (std::size_t f = 0; f < n_frags; ++f) {
    want[f] = variants_[variant(term, f)].term == term ? 1 : 0;
  }
  std::vector<TermFragment> fragments(n_frags);
  build(term, want, fragments);
  obs::TraceSpan span("fragment.eval", static_cast<std::uint64_t>(term));
  // One variant at a time, so at most one fragment's branch states are
  // alive at once. Gate fusion first, only on the fragments that pass
  // sim/fusion.hpp's width rule; the prefix/suffix boundary is preserved.
  for (std::size_t f = 0; f < n_frags; ++f) {
    if (!want[f]) {
      continue;
    }
    if (fusion_pays(fragments[f].circuit.n_qubits())) {
      fuse_fragment(fragments[f]);
    }
    tables[variant(term, f)] = fragment_table(fragments[f]);
  }
}

std::vector<Real> FragmentVariants::recombine_all(const std::vector<FragmentTable>& tables) const {
  std::vector<Real> probs(group_of_.size());
  std::vector<const FragmentTable*> ptrs;
  for (std::size_t t = 0; t < probs.size(); ++t) {
    const Group& g = groups_[group_of_[t]];
    ptrs.resize(g.slots.size());
    for (std::size_t f = 0; f < ptrs.size(); ++f) {
      ptrs[f] = &tables[variant(t, f)];
    }
    probs[t] = recombine(g.pos, ptrs.data());
  }
  return probs;
}

FragmentSplit FragmentVariants::split(std::size_t term) const {
  const Group& g = groups_[group_of_[term]];
  const std::size_t n_frags = g.slots.size();
  FragmentSplit split;
  split.max_width = g.skel.max_width;
  split.cross_cbits = g.skel.cross_cbits;
  split.fragments.resize(n_frags);
  std::vector<TermFragment> built(n_frags);
  for (std::size_t f = 0; f < n_frags; ++f) {
    const Variant& v = variants_[variant(term, f)];
    std::vector<char> want(n_frags, 0);
    want[f] = 1;
    build(v.term, want, built);
    split.fragments[f] = std::move(built[f]);
  }
  return split;
}

}  // namespace qcut
