#include "qcut/cut/circuit_cutter.hpp"

#include <algorithm>
#include <numeric>

#include "qcut/cut/teleportation.hpp"
#include "qcut/sim/executor.hpp"
#include "qcut/sim/gates.hpp"

namespace qcut {

namespace {

/// Observable sites to measure (original indexing), validated. `ctx` names
/// the entry point for the error messages.
std::vector<std::pair<int, char>> parse_observable(const std::string& observable, int n_orig,
                                                   const std::string& ctx) {
  QCUT_CHECK(static_cast<int>(observable.size()) == n_orig,
             ctx + ": observable length must match circuit width");
  std::vector<std::pair<int, char>> sites;
  for (int q = 0; q < n_orig; ++q) {
    const char p = observable[static_cast<std::size_t>(q)];
    if (p == 'I') {
      continue;
    }
    QCUT_CHECK(p == 'X' || p == 'Y' || p == 'Z', ctx + ": invalid Pauli character");
    sites.emplace_back(q, p);
  }
  QCUT_CHECK(!sites.empty(), ctx + ": observable is the identity");
  return sites;
}

/// True iff the state `wire` carries at op index `pos` is ever observed by a
/// later op: the first op from `pos` on that touches the wire must consume
/// it, not overwrite it — an initialize covering the wire discards the state,
/// so a cut feeding only into an initialize is as dead as one feeding nothing.
bool wire_used_from(const Circuit& circ, std::size_t pos, int wire) {
  for (std::size_t t = pos; t < circ.size(); ++t) {
    const Operation& op = circ.ops()[t];
    if (std::find(op.qubits.begin(), op.qubits.end(), wire) != op.qubits.end()) {
      return op.kind != OpKind::kInitialize;
    }
  }
  return false;
}

/// Equal keys ⇔ the recorded branches split alike: helper and bit counts,
/// sign bit, the sorted-unique multi-qubit interaction sets and the ordered
/// classical events (measure / conditional ops with wire and bit).
std::string branch_structure_key(const CutLayout::Branch& b) {
  std::vector<std::vector<int>> edges;
  std::vector<int> key = {b.extra_qubits, b.cbits, b.sign_cbit, -1};
  for (const Operation& op : b.ops.ops()) {
    if (op.qubits.size() > 1) {
      edges.emplace_back(op.qubits.begin(), op.qubits.end());
      std::sort(edges.back().begin(), edges.back().end());
    }
    if (op.kind == OpKind::kMeasure || op.kind == OpKind::kCondUnitary) {
      key.insert(key.end(), {static_cast<int>(op.kind), op.qubits[0], op.cbit});
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  for (const std::vector<int>& e : edges) {
    key.push_back(-2 - static_cast<int>(e.size()));
    key.insert(key.end(), e.begin(), e.end());
  }
  return std::string(reinterpret_cast<const char*>(key.data()), key.size() * sizeof(int));
}

}  // namespace

std::shared_ptr<const CutLayout> cut_layout(const Circuit& circ,
                                            const std::vector<CutSite>& cut_sites,
                                            const std::vector<const CutProtocol*>& protocols,
                                            const std::string& observable) {
  // The entry point the error messages name.
  const std::string ctx = cut_sites.empty() ? "uncut_qpd" : "cut_circuit";
  const int n_orig = circ.n_qubits();
  const std::size_t n_cuts = cut_sites.size();
  QCUT_CHECK(protocols.size() == n_cuts, ctx + ": cut/protocol count mismatch");
  QCUT_CHECK(circ.n_cbits() == 0, ctx + ": input circuit must be purely quantum");
  for (const auto& op : circ.ops()) {
    QCUT_CHECK(op.kind == OpKind::kUnitary || op.kind == OpKind::kInitialize,
               ctx + ": input circuit must contain only unitary/initialize ops");
  }
  const auto sites = parse_observable(observable, n_orig, ctx);

  auto layout = std::make_shared<CutLayout>();
  CutLayout& L = *layout;
  L.circuit = circ;
  L.cuts.resize(n_cuts);
  L.gate_at.assign(circ.size(), n_cuts);

  // Per-site validation. Receiver wires are allocated to wire sites only, in
  // input order; gate sites map 1:1 onto the host op they replace.
  int n_receivers = 0;
  for (std::size_t j = 0; j < n_cuts; ++j) {
    CutLayout::Cut& cut = L.cuts[j];
    cut.site = cut_sites[j];
    QCUT_CHECK(protocols[j] != nullptr, ctx + ": null protocol");
    QCUT_CHECK(protocols[j]->kind() == cut.site.kind,
               ctx + ": protocol kind does not match cut site kind");
    if (cut.site.kind == CutKind::kWire) {
      const CutPoint& p = cut.site.point;
      QCUT_CHECK(p.qubit >= 0 && p.qubit < n_orig, ctx + ": cut qubit out of range");
      QCUT_CHECK(p.after_op <= circ.size(), ctx + ": cut position out of range");
      // Dead-cut check: after the cut, the wire must be touched by some op or
      // measured by the observable — otherwise the teleported state is never
      // observed and the cut only inflates the sampling overhead by κ².
      const bool measured = observable[static_cast<std::size_t>(p.qubit)] != 'I';
      QCUT_CHECK(measured || wire_used_from(circ, p.after_op, p.qubit),
                 ctx + ": cut wire has no operations or observable after the cut");
      cut.wire_b = n_orig + n_receivers;
      ++n_receivers;
      L.wire_order.push_back(j);
    } else {
      QCUT_CHECK(cut.site.op_index < circ.size(), ctx + ": gate-cut op out of range");
      const Operation& op = circ.ops()[cut.site.op_index];
      QCUT_CHECK(op.kind == OpKind::kUnitary && op.qubits.size() == 2,
                 ctx + ": gate cuts apply to two-qubit unitary ops");
      QCUT_CHECK(L.gate_at[cut.site.op_index] == n_cuts, ctx + ": op cut by more than one gate cut");
      L.gate_at[cut.site.op_index] = j;
    }
  }
  // Splice order of the wire sites: by position, ties in input order
  // (stable). Receiver wire and classical-bit layout stay keyed to the input
  // order so the term structure is independent of how the cuts are sorted.
  // Gate sites need no ordering — each fires exactly when its host op does.
  std::stable_sort(L.wire_order.begin(), L.wire_order.end(), [&L](std::size_t a, std::size_t b) {
    return L.cuts[a].site.point.after_op < L.cuts[b].site.point.after_op;
  });
  for (std::size_t pos = 0; pos < circ.size(); ++pos) {
    if (L.gate_at[pos] < n_cuts) {
      L.gate_order.push_back(L.gate_at[pos]);
    }
  }

  const auto is_identity2 = [](const Matrix& m) {
    return std::abs(m(0, 0) - Cplx{1, 0}) < 1e-15 && std::abs(m(1, 1) - Cplx{1, 0}) < 1e-15 &&
           std::abs(m(0, 1)) < 1e-15 && std::abs(m(1, 0)) < 1e-15;
  };

  // Every branch's ops, recorded once on canonical wires and replayed into
  // each term that takes the branch.
  for (std::size_t j = 0; j < n_cuts; ++j) {
    CutLayout::Cut& cut = L.cuts[j];
    if (cut.site.kind == CutKind::kWire) {
      const auto* wp = dynamic_cast<const WireCutProtocol*>(protocols[j]);
      QCUT_CHECK(wp != nullptr, ctx + ": wire-kind protocol must be a WireCutProtocol");
      for (const CutGadget& g : wp->gadgets()) {
        QCUT_CHECK(g.append != nullptr, ctx + ": gadget without append function");
        CutLayout::Branch b;
        b.coefficient = g.coefficient;
        b.extra_qubits = g.extra_qubits;
        b.cbits = g.cbits;
        b.pairs = g.entangled_pairs;
        b.label = g.label;
        b.ops = Circuit(2 + g.extra_qubits, g.cbits);
        std::vector<int> helpers(static_cast<std::size_t>(g.extra_qubits));
        std::iota(helpers.begin(), helpers.end(), 2);
        g.append(b.ops, 0, 1, helpers, 0);
        cut.branches.push_back(std::move(b));
      }
    } else {
      const auto* gp = dynamic_cast<const GateCutProtocol*>(protocols[j]);
      QCUT_CHECK(gp != nullptr, ctx + ": gate-kind protocol must be a GateCutProtocol");
      const Matrix local_a = gp->local_a();
      const Matrix local_b = gp->local_b();
      for (const GateCutTerm& g : gp->terms()) {
        QCUT_CHECK(g.append != nullptr, ctx + ": gate-cut term without append function");
        CutLayout::Branch b;
        b.coefficient = g.coefficient;
        b.cbits = g.cbits;
        b.sign_cbit = g.sign_cbit;
        b.label = g.label;
        b.ops = Circuit(2, g.cbits);
        if (!is_identity2(local_a)) {
          b.ops.gate(local_a, {0}, "gc-local");
        }
        if (!is_identity2(local_b)) {
          b.ops.gate(local_b, {1}, "gc-local");
        }
        g.append(b.ops, 0, 1, 0);
        cut.branches.push_back(std::move(b));
      }
    }
    QCUT_CHECK(!cut.branches.empty(), ctx + ": protocol with no branches");
    L.n_terms *= cut.branches.size();
    QCUT_CHECK(L.n_terms <= 100000, ctx + ": term explosion");
    std::vector<std::string> keys;
    for (CutLayout::Branch& b : cut.branches) {
      keys.push_back(branch_structure_key(b));
      b.structure = static_cast<std::size_t>(
          std::find(keys.begin(), keys.end(), keys.back()) - keys.begin());
    }
  }

  // The carriers every cut fires on, and the final carriers the observable
  // measures: both are the same in every term.
  std::vector<int> cur(static_cast<std::size_t>(n_orig));
  std::iota(cur.begin(), cur.end(), 0);
  std::size_t next_cut = 0;
  for (std::size_t pos = 0; pos <= circ.size(); ++pos) {
    for (; next_cut < L.wire_order.size() &&
           L.cuts[L.wire_order[next_cut]].site.point.after_op == pos;
         ++next_cut) {
      CutLayout::Cut& cut = L.cuts[L.wire_order[next_cut]];
      int& carrier = cur[static_cast<std::size_t>(cut.site.point.qubit)];
      cut.wire_a = carrier;
      carrier = cut.wire_b;
    }
    if (pos < circ.size() && L.gate_at[pos] < n_cuts) {
      const Operation& op = circ.ops()[pos];
      L.cuts[L.gate_at[pos]].wire_a = cur[static_cast<std::size_t>(op.qubits[0])];
      L.cuts[L.gate_at[pos]].wire_b = cur[static_cast<std::size_t>(op.qubits[1])];
    }
  }
  // Observable basis changes and measurements, recorded per site on wire 0
  // and bit 0.
  for (const auto& [q, p] : sites) {
    Circuit rec(1, 1);
    append_pauli_measurement(rec, 0, p, 0);
    L.measures.emplace_back(cur[static_cast<std::size_t>(q)], std::move(rec));
  }

  // Per branch tuple: receivers, then per-cut helper blocks, then per-cut
  // classical-bit blocks followed by the observable bits.
  L.branch.resize(L.n_terms * n_cuts);
  L.helper_base.resize(L.n_terms * n_cuts);
  L.cbit_base.resize(L.n_terms * n_cuts);
  L.term_qubits.resize(L.n_terms);
  L.term_cbits.resize(L.n_terms);
  std::vector<std::uint32_t> idx(n_cuts, 0);  // current branch per cut
  for (std::size_t t = 0; t < L.n_terms; ++t) {
    int n_qubits = n_orig + n_receivers;
    int cbit = 0;
    for (std::size_t j = 0; j < n_cuts; ++j) {
      const CutLayout::Branch& b = L.cuts[j].branches[idx[j]];
      L.branch[t * n_cuts + j] = idx[j];
      L.helper_base[t * n_cuts + j] = n_qubits;
      n_qubits += b.extra_qubits;
      L.cbit_base[t * n_cuts + j] = cbit;
      cbit += b.cbits;
    }
    L.term_qubits[t] = n_qubits;
    L.term_cbits[t] = cbit + static_cast<int>(sites.size());
    // Advance the branch-index tuple (last cut fastest).
    for (std::size_t j = n_cuts; j-- > 0;) {
      if (++idx[j] < L.cuts[j].branches.size()) {
        break;
      }
      idx[j] = 0;
    }
  }
  return layout;
}

void emit_term_ops(const CutLayout& layout, std::size_t term, const OpSink& sink) {
  const Circuit& circ = layout.circuit;
  const std::size_t n_cuts = layout.cuts.size();
  const std::size_t row = term * n_cuts;
  const auto replay = [&sink](const Circuit& recorded, const int* wires, int cbit0) {
    for (const Operation& op : recorded.ops()) {
      sink(op, wires, cbit0);
    }
  };
  // Current carrier wire of each original qubit.
  std::vector<int> cur(static_cast<std::size_t>(circ.n_qubits()));
  std::iota(cur.begin(), cur.end(), 0);
  std::vector<int> wires;
  std::size_t next_cut = 0;
  for (std::size_t pos = 0; pos <= circ.size(); ++pos) {
    for (; next_cut < layout.wire_order.size() &&
           layout.cuts[layout.wire_order[next_cut]].site.point.after_op == pos;
         ++next_cut) {
      const std::size_t j = layout.wire_order[next_cut];
      const CutLayout::Cut& cut = layout.cuts[j];
      const CutLayout::Branch& b = layout.branch_of(term, j);
      wires.assign({cut.wire_a, cut.wire_b});
      for (int h = 0; h < b.extra_qubits; ++h) {
        wires.push_back(layout.helper_base[row + j] + h);
      }
      replay(b.ops, wires.data(), layout.cbit_base[row + j]);
      cur[static_cast<std::size_t>(cut.site.point.qubit)] = cut.wire_b;
    }
    if (pos == circ.size()) {
      break;
    }
    const std::size_t j = layout.gate_at[pos];
    if (j < n_cuts) {
      // Gate cut: branch-independent locals, then this branch's ops, in
      // place of the host op — on the op's current carrier wires.
      const int ab[2] = {layout.cuts[j].wire_a, layout.cuts[j].wire_b};
      replay(layout.branch_of(term, j).ops, ab, layout.cbit_base[row + j]);
    } else {
      sink(circ.ops()[pos], cur.data(), 0);
    }
  }
  // Observable measurements, into the last classical bits.
  int cbit = layout.term_cbits[term] - static_cast<int>(layout.measures.size());
  for (const auto& [wire, recorded] : layout.measures) {
    replay(recorded, &wire, cbit++);
  }
}

Qpd cut_qpd(std::shared_ptr<const CutLayout> layout, bool splice) {
  const CutLayout& L = *layout;
  const std::size_t n_cuts = L.cuts.size();
  Qpd qpd;
  // Terms differ only in their gadgets, so the longest term so far sizes the
  // next one's op list up front.
  std::size_t ops_hint = L.circuit.size() + L.measures.size();
  for (std::size_t t = 0; t < L.n_terms; ++t) {
    QpdTerm term;
    term.coefficient = 1.0;
    term.label = n_cuts == 0 ? "uncut" : "";
    for (std::size_t j = 0; j < n_cuts; ++j) {
      const CutLayout::Branch& b = L.branch_of(t, j);
      term.coefficient *= b.coefficient;
      term.entangled_pairs += b.pairs;
      term.label += (j ? "*" : "") + b.label;
    }
    // Estimate = parity of the signed gate-cut measurements (in splice
    // order) and the observable bits.
    term.estimate_cbits.clear();
    for (const std::size_t j : L.gate_order) {
      const CutLayout::Branch& b = L.branch_of(t, j);
      if (b.sign_cbit >= 0) {
        term.estimate_cbits.push_back(L.cbit_base[t * n_cuts + j] + b.sign_cbit);
      }
    }
    for (std::size_t k = L.measures.size(); k > 0; --k) {
      term.estimate_cbits.push_back(L.term_cbits[t] - static_cast<int>(k));
    }
    term.circuit = Circuit(L.term_qubits[t], L.term_cbits[t]);
    if (splice) {
      Circuit& c = term.circuit;
      c.reserve(ops_hint);
      emit_term_ops(L, t, [&c](const Operation& op, const int* wires, int cbit0) {
        // Copy the op whole, so its payload and gate classification ride
        // along, and move it onto the term's wires and bits.
        Operation moved = op;
        for (int& q : moved.qubits) {
          q = wires[q];
        }
        if (moved.cbit >= 0) {
          moved.cbit += cbit0;
        }
        c.push_op(std::move(moved));
      });
      ops_hint = std::max(ops_hint, c.size());
    }
    qpd.add(std::move(term));
  }
  qpd.set_layout(std::move(layout), splice);
  return qpd;
}

Qpd cut_circuit_sites(const Circuit& circ, const std::vector<CutSite>& cut_sites,
                      const std::vector<const CutProtocol*>& protocols,
                      const std::string& observable) {
  QCUT_CHECK(!cut_sites.empty(), "cut_circuit: no cut sites");
  return cut_qpd(cut_layout(circ, cut_sites, protocols, observable), /*splice=*/true);
}

Qpd cut_circuit(const Circuit& circ, const CutPoint& point, const WireCutProtocol& protocol,
                const std::string& observable) {
  return cut_circuit_sites(circ, {CutSite::wire(point)}, {&protocol}, observable);
}

Qpd uncut_qpd(const Circuit& circ, const std::string& observable) {
  return cut_qpd(cut_layout(circ, {}, {}, observable), /*splice=*/true);
}

Real uncut_circuit_expectation(const Circuit& circ, const std::string& observable) {
  return exact_expectation_pauli(circ, observable);
}

// The single-wire convenience path, shared by every protocol.
Qpd WireCutProtocol::build_qpd(const CutInput& input) const {
  Circuit prep(1, 0);
  prep.gate(input.prep, {0}, "W");
  return cut_circuit(prep, CutPoint{1, 0}, *this, std::string(1, input.observable));
}

}  // namespace qcut
