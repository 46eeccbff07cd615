#include "qcut/cut/fragment.hpp"

#include <algorithm>
#include <numeric>

#include "qcut/common/cancel.hpp"
#include "qcut/common/fault.hpp"
#include "qcut/common/union_find.hpp"
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

void append_u16(std::string& key, int v) {
  key.push_back(static_cast<char>(v & 0xff));
  key.push_back(static_cast<char>((v >> 8) & 0xff));
}

/// Per-fragment conditional tables: [fragment][read asg][write pattern * 2 +
/// estimate parity].
using FragTables = std::vector<std::vector<std::vector<Real>>>;

/// Folds one fragment's final branches into its table row for read
/// assignment `ra`, using hoisted cbit positions.
void fold_branches(const std::vector<Branch>& branches, const std::vector<std::size_t>& wr_idx,
                   const std::vector<std::size_t>& est_idx, std::vector<Real>& tab_ra) {
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
                        std::vector<Real>& tab_ra) {
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

Real recombine(const FragmentSplit& split, const FragTables& tables) {
  obs::TraceSpan span("fragment.recombine",
                      static_cast<std::uint64_t>(split.cross_cbits.size()));
  const std::vector<int>& cross = split.cross_cbits;
  const std::size_t n_cross = cross.size();
  const auto cross_pos = [&cross](int cbit) {
    return static_cast<std::size_t>(
        std::lower_bound(cross.begin(), cross.end(), cbit) - cross.begin());
  };

  // Cross-bit positions are loop-invariant: hoist them out of the 2^n_cross
  // sigma sweep below.
  std::vector<std::vector<std::size_t>> read_pos(split.fragments.size());
  std::vector<std::vector<std::size_t>> write_pos(split.fragments.size());
  for (std::size_t f = 0; f < split.fragments.size(); ++f) {
    for (const int cb : split.fragments[f].reads) {
      read_pos[f].push_back(cross_pos(cb));
    }
    for (const int cb : split.fragments[f].writes) {
      write_pos[f].push_back(cross_pos(cb));
    }
  }

  const auto sigma_range = [&](std::uint64_t s0, std::uint64_t s1) {
    Real acc = 0.0;
    for (std::uint64_t sigma = s0; sigma < s1; ++sigma) {
      Real p0 = 1.0;
      Real p1 = 0.0;
      for (std::size_t f = 0; f < split.fragments.size(); ++f) {
        std::size_t ra = 0;
        for (std::size_t j = 0; j < read_pos[f].size(); ++j) {
          ra |= static_cast<std::size_t>((sigma >> read_pos[f][j]) & 1) << j;
        }
        std::size_t wp = 0;
        for (std::size_t j = 0; j < write_pos[f].size(); ++j) {
          wp |= static_cast<std::size_t>((sigma >> write_pos[f][j]) & 1) << j;
        }
        const Real f0 = tables[f][ra][wp * 2];
        const Real f1 = tables[f][ra][wp * 2 + 1];
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

  const std::uint64_t n_sigma = std::uint64_t{1} << n_cross;
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

void check_split_limits(const FragmentSplit& split) {
  QCUT_CHECK(split.cross_cbits.size() <= 20,
             "fragment_term_prob_one: too many cross-fragment cbits");
  for (const TermFragment& tf : split.fragments) {
    QCUT_CHECK(tf.reads.size() <= 16,
               "fragment_term_prob_one: fragment reads too many cross bits");
    QCUT_CHECK(tf.circuit.n_qubits() <= Statevector::kMaxQubits,
               "fragment_term_prob_one: fragment wider than the statevector cap");
  }
}

std::vector<std::size_t> hoisted_positions(const std::vector<int>& cbits) {
  std::vector<std::size_t> idx;
  idx.reserve(cbits.size());
  for (const int cb : cbits) {
    idx.push_back(static_cast<std::size_t>(cb));
  }
  return idx;
}

}  // namespace

SplitSkeleton build_split_skeleton(const Circuit& c) {
  const int n = c.n_qubits();
  const int n_cbits = c.n_cbits();

  SplitSkeleton skel;
  skel.n_qubits = n;
  skel.n_cbits = n_cbits;

  // Connected components of the qubit-interaction graph: every multi-qubit op
  // (unitary or entangled-resource initialize alike) merges its wires.
  UnionFind uf(static_cast<std::size_t>(n));
  for (const Operation& op : c.ops()) {
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
  for (std::size_t t = 0; t < c.ops().size(); ++t) {
    const Operation& op = c.ops()[t];
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

FragmentSplit split_term(const QpdTerm& term, const SplitSkeleton& skel) {
  const Circuit& c = term.circuit;
  QCUT_CHECK(c.n_qubits() == skel.n_qubits && c.n_cbits() == skel.n_cbits,
             "split_term: term does not match the skeleton's registers");

  FragmentSplit split;
  split.max_width = skel.max_width;
  split.cross_cbits = skel.cross_cbits;
  const std::size_t n_frags = skel.wires_of.size();
  split.fragments.resize(n_frags);
  for (std::size_t f = 0; f < n_frags; ++f) {
    TermFragment& tf = split.fragments[f];
    tf.wires = skel.wires_of[f];
    tf.reads = skel.reads_of[f];
    tf.writes = skel.writes_of[f];
    tf.circuit = Circuit(static_cast<int>(tf.wires.size()), skel.n_cbits);
  }

  // Estimate bits belong to the fragment that measures them; a bit no
  // fragment writes is the constant 0 and drops out of the parity.
  for (const int cb : term.estimate_cbits) {
    QCUT_CHECK(cb >= 0 && cb < skel.n_cbits, "split_term: estimate cbit out of range");
    const int wf = skel.writer_frag[static_cast<std::size_t>(cb)];
    if (wf < 0) {
      continue;
    }
    QCUT_CHECK(!skel.multi_frag_write[static_cast<std::size_t>(cb)],
               "split_term: estimate cbit written in two fragments");
    split.fragments[static_cast<std::size_t>(wf)].estimate_cbits.push_back(cb);
  }

  // Replay the ops into their fragments, qubits remapped to local indices.
  // push_op keeps each op's precomputed gate classification — the gadget
  // matrices are never re-inspected per term. The unconditioned-prefix
  // boundary (first fragment-local op reading a cross bit) is term-specific
  // — op counts differ across gadget variants — so it is computed here, not
  // in the skeleton.
  std::vector<std::size_t> n_ops(n_frags, 0);
  for (const Operation& op : c.ops()) {
    ++n_ops[static_cast<std::size_t>(skel.frag_of_wire[static_cast<std::size_t>(op.qubits[0])])];
  }
  for (std::size_t f = 0; f < n_frags; ++f) {
    split.fragments[f].circuit.reserve(n_ops[f]);
  }
  std::vector<char> suffix_found(n_frags, 0);
  for (const Operation& op : c.ops()) {
    const std::size_t f =
        static_cast<std::size_t>(skel.frag_of_wire[static_cast<std::size_t>(op.qubits[0])]);
    Operation copy = op;
    for (std::size_t i = 0; i < copy.qubits.size(); ++i) {
      // Every op must lie inside one fragment — the cheap structural guard
      // that catches a term instantiated against a foreign skeleton.
      QCUT_CHECK(static_cast<std::size_t>(
                     skel.frag_of_wire[static_cast<std::size_t>(op.qubits[i])]) == f,
                 "split_term: term interaction structure does not match the skeleton");
      copy.qubits[i] = skel.local_index[static_cast<std::size_t>(op.qubits[i])];
    }
    TermFragment& tf = split.fragments[f];
    if (!suffix_found[f] && op.kind == OpKind::kCondUnitary && contains(tf.reads, op.cbit)) {
      tf.cond_suffix_begin = tf.circuit.size();
      suffix_found[f] = 1;
    }
    tf.circuit.push_op(std::move(copy));
  }
  for (std::size_t f = 0; f < n_frags; ++f) {
    if (!suffix_found[f]) {
      split.fragments[f].cond_suffix_begin = split.fragments[f].circuit.size();
    }
  }
  return split;
}

FragmentSplit split_term(const QpdTerm& term) {
  return split_term(term, build_split_skeleton(term.circuit));
}

std::string split_structure_key(const Circuit& c) {
  // Interaction edges: the sorted-unique multi-qubit op wire sets (order and
  // multiplicity never change the union-find partition).
  std::vector<std::string> edges;
  for (const Operation& op : c.ops()) {
    if (op.qubits.size() < 2) {
      continue;
    }
    QubitList qs = op.qubits;
    std::sort(qs.begin(), qs.end());
    std::string e;
    e.reserve(qs.size() * 2);
    for (const int q : qs) {
      // Two bytes per index: Circuit::kMaxQubits is 62 today, but the key
      // must never collide if that cap ever rises past one byte.
      append_u16(e, q);
    }
    edges.push_back(std::move(e));
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  std::string key;
  key.reserve(8 + edges.size() * 4 + c.ops().size() * 4);
  append_u16(key, c.n_qubits());
  append_u16(key, c.n_cbits());
  for (const std::string& e : edges) {
    key.push_back(static_cast<char>(e.size()));
    key += e;
  }
  key.push_back('\x7f');  // edges / events separator
  // Classical events in program order: the cbit-role analysis (who writes,
  // who reads, write-before-read) sees exactly this subsequence.
  for (const Operation& op : c.ops()) {
    if (op.kind == OpKind::kMeasure) {
      key.push_back('M');
      append_u16(key, op.qubits[0]);
      append_u16(key, op.cbit);
    } else if (op.kind == OpKind::kCondUnitary) {
      key.push_back('C');
      append_u16(key, op.qubits[0]);
      append_u16(key, op.cbit);
    }
  }
  return key;
}

std::shared_ptr<const SplitSkeleton> cached_skeleton(SplitSkeletonCache& cache, const Circuit& c) {
  const auto build = [&c] {
    obs::count(obs::Counter::kSkeletonCacheMiss);  // counted even if the build throws
    obs::TraceSpan span("skeleton.build");
    return std::make_shared<const SplitSkeleton>(build_split_skeleton(c));
  };
  bool hit = false;
  std::shared_ptr<const SplitSkeleton> skel =
      cache.get_or_build(split_structure_key(c), build, &hit);
  if (hit) {
    obs::count(obs::Counter::kSkeletonCacheHit);
  }
  return skel;
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

Real fragment_term_prob_one(const FragmentSplit& split) {
  check_split_limits(split);
  const std::size_t n_frags = split.fragments.size();
  obs::TraceSpan eval_span("fragment.eval", static_cast<std::uint64_t>(n_frags));

  struct FragEval {
    std::vector<std::vector<Real>> tab;     ///< [read asg][write pattern * 2 + parity]
    std::vector<std::size_t> wr_idx;        ///< hoisted write-cbit positions
    std::vector<std::size_t> est_idx;       ///< hoisted estimate-cbit positions
    TailFold tail;                          ///< trailing-measure fold plan
    std::size_t prefix_end = 0;             ///< ops [0, prefix_end) run once
  };
  std::vector<FragEval> ev(n_frags);

  std::size_t n_units = 0;
  for (std::size_t f = 0; f < n_frags; ++f) {
    const TermFragment& tf = split.fragments[f];
    const std::size_t r = tf.reads.size();
    const std::size_t w = tf.writes.size();
    ev[f].tab.assign(std::size_t{1} << r,
                     std::vector<Real>((std::size_t{1} << w) * 2, 0.0));
    ev[f].wr_idx = hoisted_positions(tf.writes);
    ev[f].est_idx = hoisted_positions(tf.estimate_cbits);
    ev[f].tail = make_tail_fold(tf);
    ev[f].prefix_end = std::min(tf.cond_suffix_begin, ev[f].tail.tail_begin);
    n_units += std::size_t{1} << r;
  }
  obs::count(obs::Counter::kFragmentUnits, n_units);
  obs::count(obs::Counter::kFragmentPrefixRuns, n_frags);

  // (fragment, read assignment) units are the fragment path's cancellation
  // quantum. Per unit, continue `branches`, the fragment's prefix, through
  // the read-dependent suffix with the read bits preset, then fold them into
  // the unit's table row. Units touch disjoint rows, so scheduling cannot
  // change the result. `u` numbers the unit across fragments (its trace id).
  const auto run_unit = [&](std::size_t f, std::size_t ra, std::size_t u,
                            std::vector<Branch> branches) {
    cancel_poll();
    fault::maybe_inject(fault::Site::kFragmentUnit);
    obs::TraceSpan span("fragment.unit", static_cast<std::uint64_t>(u));
    const TermFragment& tf = split.fragments[f];
    const std::size_t r = tf.reads.size();
    const std::size_t tail_begin = ev[f].tail.tail_begin;
    if (r > 0) {
      for (Branch& b : branches) {
        for (std::size_t j = 0; j < r; ++j) {
          b.cbits[static_cast<std::size_t>(tf.reads[j])] = static_cast<int>((ra >> j) & 1);
        }
      }
      advance_branches(branches, tf.circuit, ev[f].prefix_end, tail_begin);
    }
    if (tail_begin < tf.circuit.size()) {
      fold_branches_tail(branches, ev[f].tail, ev[f].tab[ra]);
    } else {
      fold_branches(branches, ev[f].wr_idx, ev[f].est_idx, ev[f].tab[ra]);
    }
  };

  // One fragment at a time: its unconditioned prefix, simulated once, then
  // its units, the last of which takes the prefix by move after the others
  // have copied it. So at most one fragment's branch states are alive at
  // once.
  std::size_t u0 = 0;
  for (std::size_t f = 0; f < n_frags; ++f) {
    cancel_poll();
    const TermFragment& tf = split.fragments[f];
    std::vector<Branch> prefix;
    {
      obs::TraceSpan span("fragment.prefix", static_cast<std::uint64_t>(f));
      prefix.push_back({1.0, std::vector<int>(static_cast<std::size_t>(tf.circuit.n_cbits()), 0),
                        Statevector(tf.circuit.n_qubits())});
      advance_branches(prefix, tf.circuit, 0, ev[f].prefix_end);
    }
    const std::size_t last = ev[f].tab.size() - 1;
    for (std::size_t ra = 0; ra < last; ++ra) {
      run_unit(f, ra, u0 + ra, prefix);
    }
    run_unit(f, last, u0 + last, std::move(prefix));
    u0 += last + 1;
  }

  FragTables tables(n_frags);
  for (std::size_t f = 0; f < n_frags; ++f) {
    tables[f] = std::move(ev[f].tab);
  }
  return recombine(split, tables);
}

}  // namespace qcut
