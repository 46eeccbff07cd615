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

void append_original_op(Circuit& c, const Operation& op, const std::vector<int>& cur) {
  // Copy the op whole, so its gate classification rides along instead of
  // being recomputed per term, and move it onto the current carrier wires.
  Operation moved = op;
  for (int& q : moved.qubits) {
    q = cur[static_cast<std::size_t>(q)];
  }
  c.push_op(std::move(moved));
}

/// Replays ops recorded on canonical wires (0, 1, 2, ...) and classical bits
/// (0, 1, ...) onto `wires` and bits from `cbit0`. The copies share the
/// recorded ops' gate payloads, so a branch's gates are built once per QPD
/// instead of once per term.
void replay_ops(Circuit& c, const Circuit& recorded, const std::vector<int>& wires, int cbit0) {
  for (const Operation& op : recorded.ops()) {
    Operation moved = op;
    for (int& q : moved.qubits) {
      q = wires[static_cast<std::size_t>(q)];
    }
    if (moved.cbit >= 0) {
      moved.cbit += cbit0;
    }
    c.push_op(std::move(moved));
  }
}

}  // namespace

Qpd cut_circuit_sites(const Circuit& circ, const std::vector<CutSite>& cut_sites,
                      const std::vector<const CutProtocol*>& protocols,
                      const std::string& observable) {
  const int n_orig = circ.n_qubits();
  const std::size_t n_cuts = cut_sites.size();
  QCUT_CHECK(n_cuts > 0, "cut_circuit: no cut sites");
  QCUT_CHECK(protocols.size() == n_cuts, "cut_circuit: cut/protocol count mismatch");
  QCUT_CHECK(circ.n_cbits() == 0, "cut_circuit: input circuit must be purely quantum");
  for (const auto& op : circ.ops()) {
    QCUT_CHECK(op.kind == OpKind::kUnitary || op.kind == OpKind::kInitialize,
               "cut_circuit: input circuit must contain only unitary/initialize ops");
  }
  const auto sites = parse_observable(observable, n_orig, "cut_circuit");

  // Per-site validation. Receiver wires are allocated to wire sites only, in
  // input order; gate sites map 1:1 onto the host op they replace.
  std::vector<int> receiver(n_cuts, -1);
  int n_receivers = 0;
  std::vector<std::size_t> gate_site_at(circ.size(), n_cuts);  // op index -> site
  for (std::size_t j = 0; j < n_cuts; ++j) {
    QCUT_CHECK(protocols[j] != nullptr, "cut_circuit: null protocol");
    QCUT_CHECK(protocols[j]->kind() == cut_sites[j].kind,
               "cut_circuit: protocol kind does not match cut site kind");
    if (cut_sites[j].kind == CutKind::kWire) {
      const CutPoint& p = cut_sites[j].point;
      QCUT_CHECK(p.qubit >= 0 && p.qubit < n_orig, "cut_circuit: cut qubit out of range");
      QCUT_CHECK(p.after_op <= circ.size(), "cut_circuit: cut position out of range");
      // Dead-cut check: after the cut, the wire must be touched by some op or
      // measured by the observable — otherwise the teleported state is never
      // observed and the cut only inflates the sampling overhead by κ².
      const bool measured = observable[static_cast<std::size_t>(p.qubit)] != 'I';
      QCUT_CHECK(measured || wire_used_from(circ, p.after_op, p.qubit),
                 "cut_circuit: cut wire has no operations or observable after the cut");
      receiver[j] = n_orig + n_receivers;
      ++n_receivers;
    } else {
      QCUT_CHECK(cut_sites[j].op_index < circ.size(), "cut_circuit: gate-cut op out of range");
      const Operation& op = circ.ops()[cut_sites[j].op_index];
      QCUT_CHECK(op.kind == OpKind::kUnitary && op.qubits.size() == 2,
                 "cut_circuit: gate cuts apply to two-qubit unitary ops");
      QCUT_CHECK(gate_site_at[cut_sites[j].op_index] == n_cuts,
                 "cut_circuit: op cut by more than one gate cut");
      gate_site_at[cut_sites[j].op_index] = j;
    }
  }

  // One uniform branch view per site: wire gadgets or gate-cut terms.
  struct Branch {
    Real coefficient = 0.0;
    int extra_qubits = 0;
    int cbits = 0;
    int pairs = 0;
    int sign_cbit = -1;
    const std::string* label = nullptr;
    const CutGadget* wire = nullptr;
    const GateCutTerm* gate = nullptr;
  };
  std::vector<std::vector<CutGadget>> wire_gadgets(n_cuts);
  std::vector<std::vector<GateCutTerm>> gate_terms(n_cuts);
  std::vector<Matrix> gate_local_a(n_cuts), gate_local_b(n_cuts);
  std::vector<std::vector<Branch>> branch_sets(n_cuts);
  std::size_t total_terms = 1;
  for (std::size_t j = 0; j < n_cuts; ++j) {
    if (cut_sites[j].kind == CutKind::kWire) {
      const auto* wp = dynamic_cast<const WireCutProtocol*>(protocols[j]);
      QCUT_CHECK(wp != nullptr, "cut_circuit: wire-kind protocol must be a WireCutProtocol");
      wire_gadgets[j] = wp->gadgets();
      for (const CutGadget& g : wire_gadgets[j]) {
        QCUT_CHECK(g.append != nullptr, "cut_circuit: gadget without append function");
        Branch b;
        b.coefficient = g.coefficient;
        b.extra_qubits = g.extra_qubits;
        b.cbits = g.cbits;
        b.pairs = g.entangled_pairs;
        b.label = &g.label;
        b.wire = &g;
        branch_sets[j].push_back(b);
      }
    } else {
      const auto* gp = dynamic_cast<const GateCutProtocol*>(protocols[j]);
      QCUT_CHECK(gp != nullptr, "cut_circuit: gate-kind protocol must be a GateCutProtocol");
      gate_terms[j] = gp->terms();
      gate_local_a[j] = gp->local_a();
      gate_local_b[j] = gp->local_b();
      for (const GateCutTerm& g : gate_terms[j]) {
        QCUT_CHECK(g.append != nullptr, "cut_circuit: gate-cut term without append function");
        Branch b;
        b.coefficient = g.coefficient;
        b.cbits = g.cbits;
        b.sign_cbit = g.sign_cbit;
        b.label = &g.label;
        b.gate = &g;
        branch_sets[j].push_back(b);
      }
    }
    QCUT_CHECK(!branch_sets[j].empty(), "cut_circuit: protocol with no branches");
    total_terms *= branch_sets[j].size();
    QCUT_CHECK(total_terms <= 100000, "cut_circuit: term explosion");
  }

  // Splice order of the wire sites: by position, ties in input order
  // (stable). Receiver wire and classical-bit layout stay keyed to the input
  // order so the term structure is independent of how the cuts are sorted.
  // Gate sites need no ordering — each fires exactly when its host op does.
  std::vector<std::size_t> order;
  for (std::size_t j = 0; j < n_cuts; ++j) {
    if (cut_sites[j].kind == CutKind::kWire) {
      order.push_back(j);
    }
  }
  std::stable_sort(order.begin(), order.end(), [&cut_sites](std::size_t a, std::size_t b) {
    return cut_sites[a].point.after_op < cut_sites[b].point.after_op;
  });

  const auto is_identity2 = [](const Matrix& m) {
    return std::abs(m(0, 0) - Cplx{1, 0}) < 1e-15 && std::abs(m(1, 1) - Cplx{1, 0}) < 1e-15 &&
           std::abs(m(0, 1)) < 1e-15 && std::abs(m(1, 0)) < 1e-15;
  };

  // Every branch's ops, recorded once on canonical wires — 0 = the cut wire
  // (or the gate's first qubit), 1 = its receiver (or second qubit), 2.. =
  // helpers — and replayed into each term that takes the branch. A gate
  // branch's recording starts with the cut's branch-independent locals.
  std::vector<std::vector<Circuit>> branch_ops(n_cuts);
  for (std::size_t j = 0; j < n_cuts; ++j) {
    for (const Branch& b : branch_sets[j]) {
      Circuit rec(2 + b.extra_qubits, b.cbits);
      if (b.wire != nullptr) {
        std::vector<int> helpers(static_cast<std::size_t>(b.extra_qubits));
        std::iota(helpers.begin(), helpers.end(), 2);
        b.wire->append(rec, 0, 1, helpers, 0);
      } else {
        if (!is_identity2(gate_local_a[j])) {
          rec.gate(gate_local_a[j], {0}, "gc-local");
        }
        if (!is_identity2(gate_local_b[j])) {
          rec.gate(gate_local_b[j], {1}, "gc-local");
        }
        b.gate->append(rec, 0, 1, 0);
      }
      branch_ops[j].push_back(std::move(rec));
    }
  }
  // Observable basis changes and measurements, recorded per site on wire 0
  // and bit 0.
  std::vector<Circuit> measure_ops;
  for (const auto& [q, p] : sites) {
    Circuit rec(1, 1);
    append_pauli_measurement(rec, 0, p, 0);
    measure_ops.push_back(std::move(rec));
  }

  Qpd qpd;
  std::vector<std::size_t> idx(n_cuts, 0);  // current branch per cut
  // Terms differ only in their gadgets, so the longest term so far sizes the
  // next one's op list up front.
  std::size_t ops_hint = circ.size() + sites.size();
  for (std::size_t t = 0; t < total_terms; ++t) {
    // Layout for this branch tuple: receivers, then per-cut helper blocks,
    // then per-cut classical-bit blocks followed by the observable bits.
    int n_qubits = n_orig + n_receivers;
    std::vector<int> helper_base(n_cuts), cbit_base(n_cuts);
    int cbit = 0;
    Real coeff = 1.0;
    int pairs = 0;
    std::string label;
    for (std::size_t j = 0; j < n_cuts; ++j) {
      const Branch& b = branch_sets[j][idx[j]];
      helper_base[j] = n_qubits;
      n_qubits += b.extra_qubits;
      cbit_base[j] = cbit;
      cbit += b.cbits;
      coeff *= b.coefficient;
      pairs += b.pairs;
      label += (j ? "*" : "") + *b.label;
    }
    Circuit c(n_qubits, cbit + static_cast<int>(sites.size()));
    c.reserve(ops_hint);

    QpdTerm term;
    term.estimate_cbits.clear();

    // Current carrier wire of each original qubit.
    std::vector<int> cur(static_cast<std::size_t>(n_orig));
    std::iota(cur.begin(), cur.end(), 0);

    std::size_t next_cut = 0;
    for (std::size_t pos = 0; pos <= circ.size(); ++pos) {
      while (next_cut < order.size() && cut_sites[order[next_cut]].point.after_op == pos) {
        const std::size_t j = order[next_cut];
        const Branch& b = branch_sets[j][idx[j]];
        const int dst = receiver[j];
        const int src = cur[static_cast<std::size_t>(cut_sites[j].point.qubit)];
        std::vector<int> wires = {src, dst};
        for (int h = 0; h < b.extra_qubits; ++h) {
          wires.push_back(helper_base[j] + h);
        }
        replay_ops(c, branch_ops[j][idx[j]], wires, cbit_base[j]);
        cur[static_cast<std::size_t>(cut_sites[j].point.qubit)] = dst;
        ++next_cut;
      }
      if (pos < circ.size()) {
        const std::size_t j = gate_site_at[pos];
        if (j < n_cuts) {
          // Gate cut: branch-independent locals, then this branch's ops, in
          // place of the host op — on the op's *current* carrier wires.
          const Branch& b = branch_sets[j][idx[j]];
          const Operation& op = circ.ops()[pos];
          const int qa = cur[static_cast<std::size_t>(op.qubits[0])];
          const int qb = cur[static_cast<std::size_t>(op.qubits[1])];
          replay_ops(c, branch_ops[j][idx[j]], {qa, qb}, cbit_base[j]);
          if (b.sign_cbit >= 0) {
            term.estimate_cbits.push_back(cbit_base[j] + b.sign_cbit);
          }
        } else {
          append_original_op(c, circ.ops()[pos], cur);
        }
      }
    }

    // Observable measurements; estimate = parity of the recorded bits
    // (signed gate-cut measurements included above).
    for (std::size_t k = 0; k < sites.size(); ++k) {
      replay_ops(c, measure_ops[k], {cur[static_cast<std::size_t>(sites[k].first)]}, cbit);
      term.estimate_cbits.push_back(cbit);
      ++cbit;
    }
    ops_hint = std::max(ops_hint, c.size());
    term.coefficient = coeff;
    term.circuit = std::move(c);
    term.entangled_pairs = pairs;
    term.label = std::move(label);
    qpd.add(std::move(term));

    // Advance the branch-index tuple (last cut fastest).
    for (std::size_t j = n_cuts; j-- > 0;) {
      if (++idx[j] < branch_sets[j].size()) {
        break;
      }
      idx[j] = 0;
    }
  }
  return qpd;
}

Qpd cut_circuit(const Circuit& circ, const CutPoint& point, const WireCutProtocol& protocol,
                const std::string& observable) {
  return cut_circuit_sites(circ, {CutSite::wire(point)}, {&protocol}, observable);
}

Qpd uncut_qpd(const Circuit& circ, const std::string& observable) {
  QCUT_CHECK(circ.n_cbits() == 0, "uncut_qpd: input circuit must be purely quantum");
  for (const auto& op : circ.ops()) {
    QCUT_CHECK(op.kind == OpKind::kUnitary || op.kind == OpKind::kInitialize,
               "uncut_qpd: input circuit must contain only unitary/initialize ops");
  }
  const auto sites = parse_observable(observable, circ.n_qubits(), "uncut_qpd");
  Circuit c(circ.n_qubits(), static_cast<int>(sites.size()));
  std::vector<int> cur(static_cast<std::size_t>(circ.n_qubits()));
  std::iota(cur.begin(), cur.end(), 0);
  for (const auto& op : circ.ops()) {
    append_original_op(c, op, cur);
  }
  QpdTerm term;
  term.coefficient = 1.0;
  term.estimate_cbits.clear();
  int cbit = 0;
  for (const auto& [q, p] : sites) {
    append_pauli_measurement(c, q, p, cbit);
    term.estimate_cbits.push_back(cbit);
    ++cbit;
  }
  term.circuit = std::move(c);
  term.label = "uncut";
  Qpd qpd;
  qpd.add(std::move(term));
  return qpd;
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
