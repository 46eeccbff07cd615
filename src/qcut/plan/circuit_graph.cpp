#include "qcut/plan/circuit_graph.hpp"

#include <algorithm>
#include <numeric>

#include "qcut/cut/gate_cut.hpp"

namespace qcut {

std::vector<int> FragmentPartition::widths_desc() const {
  std::vector<int> out = widths;
  std::sort(out.begin(), out.end(), std::greater<int>());
  return out;
}

int FragmentPartition::max_width() const {
  int w = 0;
  for (int x : widths) {
    w = std::max(w, x);
  }
  return w;
}

CircuitGraph::CircuitGraph(const Circuit& circ) : circ_(&circ) {
  for (std::size_t t = 0; t < circ.size(); ++t) {
    const auto& op = circ.ops()[t];
    QCUT_CHECK(op.kind == OpKind::kUnitary || op.kind == OpKind::kInitialize,
               "CircuitGraph: circuit must contain only unitary/initialize ops");
    const int arity = static_cast<int>(op.qubits.size());
    min_reachable_width_ = std::max(min_reachable_width_, arity);

    // Gate-cut candidates: two-qubit unitaries whose matrix is diagonal up to
    // local factors — exactly the ops zz_factor_diagonal handles. Such ops
    // are severable, so they do not raise the with-gate-cuts width floor.
    bool severable = false;
    if (op.kind == OpKind::kUnitary && op.qubits.size() == 2) {
      const ZzFactorization f = zz_factor_diagonal(op.matrix());
      if (f.ok) {
        severable = true;
        gate_candidates_.push_back(GateCandidate{t, f.theta, zz_gate_cut_overhead(f.theta)});
      }
    }
    if (!severable) {
      min_reachable_width_gate_ = std::max(min_reachable_width_gate_, arity);
    }
  }

  // Indices (into circ.ops()) of the ops acting on each wire, time-ordered.
  std::vector<std::vector<std::size_t>> wire_ops(static_cast<std::size_t>(circ.n_qubits()));
  for (std::size_t t = 0; t < circ.size(); ++t) {
    for (int q : circ.ops()[t].qubits) {
      wire_ops[static_cast<std::size_t>(q)].push_back(t);
    }
  }

  // One candidate per inter-op gap, placed directly after the earlier op.
  // Gaps whose next op on the wire is an initialize are skipped: the
  // initialize overwrites the wire, so a cut there teleports a state that is
  // immediately discarded — the cutter rejects it as dead, and the width
  // split it buys is free anyway (the continuation is independent of the
  // sender side without any QPD).
  for (int q = 0; q < circ.n_qubits(); ++q) {
    const auto& ops = wire_ops[static_cast<std::size_t>(q)];
    for (std::size_t i = 1; i < ops.size(); ++i) {
      if (circ.ops()[ops[i]].kind == OpKind::kInitialize) {
        continue;
      }
      candidates_.push_back(CutPoint{ops[i - 1] + 1, q});
    }
  }
  std::sort(candidates_.begin(), candidates_.end(), [](const CutPoint& a, const CutPoint& b) {
    return a.after_op != b.after_op ? a.after_op < b.after_op : a.qubit < b.qubit;
  });

  // Unified list: wire candidates keep their established indices; gate
  // candidates follow, by op index.
  for (const CutPoint& p : candidates_) {
    CutCandidate c;
    c.site = CutSite::wire(p);
    all_candidates_.push_back(c);
  }
  for (const GateCandidate& g : gate_candidates_) {
    CutCandidate c;
    c.site = CutSite::gate(g.op_index);
    c.gate_theta = g.theta;
    c.gate_kappa = g.kappa;
    all_candidates_.push_back(c);
  }
}

FragmentPartition CircuitGraph::partition(const std::vector<CutPoint>& wire_cuts,
                                          const std::vector<std::size_t>& gate_cut_ops) const {
  PartitionScratch scratch;
  FragmentPartition out;
  partition(wire_cuts, gate_cut_ops, scratch, out);
  return out;
}

void CircuitGraph::partition(const std::vector<CutPoint>& wire_cuts,
                             const std::vector<std::size_t>& gate_cut_ops,
                             PartitionScratch& scratch, FragmentPartition& out) const {
  const int n = circ_->n_qubits();
  // Cut positions per wire, sorted, deduplicated (cutting the same spot twice
  // chains receivers without refining the partition).
  auto& per_wire = scratch.per_wire;
  per_wire.resize(static_cast<std::size_t>(n));
  for (auto& pos : per_wire) {
    pos.clear();
  }
  for (const CutPoint& cp : wire_cuts) {
    QCUT_CHECK(cp.qubit >= 0 && cp.qubit < n, "partition: cut qubit out of range");
    QCUT_CHECK(cp.after_op <= circ_->size(), "partition: cut position out of range");
    per_wire[static_cast<std::size_t>(cp.qubit)].push_back(cp.after_op);
  }
  std::size_t n_segments = 0;
  auto& seg_base = scratch.seg_base;
  seg_base.resize(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) {
    auto& pos = per_wire[static_cast<std::size_t>(q)];
    std::sort(pos.begin(), pos.end());
    pos.erase(std::unique(pos.begin(), pos.end()), pos.end());
    seg_base[static_cast<std::size_t>(q)] = n_segments;
    n_segments += pos.size() + 1;
  }

  // Segment of wire q at op position t: #cuts on q at positions <= t.
  const auto segment_at = [&](int q, std::size_t t) {
    const auto& pos = per_wire[static_cast<std::size_t>(q)];
    const std::size_t k = static_cast<std::size_t>(
        std::upper_bound(pos.begin(), pos.end(), t) - pos.begin());
    return seg_base[static_cast<std::size_t>(q)] + k;
  };

  // Marked here and cleared on the way out, so the buffer stays all-zero.
  auto& severed = scratch.severed;
  severed.resize(circ_->size(), 0);
  for (std::size_t t : gate_cut_ops) {
    QCUT_CHECK(t < circ_->size(), "partition: gate-cut op out of range");
    severed[t] = 1;
  }

  UnionFind& uf = scratch.segments;
  uf.reset(n_segments);
  for (std::size_t t = 0; t < circ_->size(); ++t) {
    if (severed[t]) {
      continue;  // the gate cut's branches are fully local
    }
    const auto& qs = circ_->ops()[t].qubits;
    for (std::size_t i = 1; i < qs.size(); ++i) {
      uf.unite(segment_at(qs[0], t), segment_at(qs[i], t));
    }
  }
  for (std::size_t t : gate_cut_ops) {
    severed[t] = 0;
  }

  // Compress roots to dense fragment ids.
  auto& frag_of_root = scratch.frag_of_root;
  frag_of_root.assign(n_segments, -1);
  out.widths.clear();
  for (std::size_t s = 0; s < n_segments; ++s) {
    const std::size_t r = uf.find(s);
    if (frag_of_root[r] < 0) {
      frag_of_root[r] = static_cast<int>(out.widths.size());
      out.widths.push_back(0);
    }
    ++out.widths[static_cast<std::size_t>(frag_of_root[r])];
  }

  // Sender/receiver fragment of each input wire cut. A cut at position p on
  // wire q sits between the segment of ops t < p and the segment of ops
  // t >= p: with k = index of p in the deduped positions, those are
  // seg_base + k and seg_base + k + 1.
  out.cut_fragments.clear();
  for (const CutPoint& cp : wire_cuts) {
    const auto& pos = per_wire[static_cast<std::size_t>(cp.qubit)];
    const std::size_t k = static_cast<std::size_t>(
        std::lower_bound(pos.begin(), pos.end(), cp.after_op) - pos.begin());
    const std::size_t sender = seg_base[static_cast<std::size_t>(cp.qubit)] + k;
    const std::size_t receiver = sender + 1;
    out.cut_fragments.emplace_back(frag_of_root[uf.find(sender)],
                                   frag_of_root[uf.find(receiver)]);
  }
}

std::vector<int> CircuitGraph::fragment_widths(const std::vector<CutPoint>& cuts) const {
  return partition(cuts, {}).widths_desc();
}

int CircuitGraph::max_fragment_width(const std::vector<CutPoint>& cuts) const {
  return partition(cuts, {}).max_width();
}

}  // namespace qcut
