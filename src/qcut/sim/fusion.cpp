#include "qcut/sim/fusion.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "qcut/obs/metrics.hpp"

namespace qcut {

namespace {

/// Exact identity test (same spirit as classify_gate's exact entry tests):
/// only a matrix that is bit-for-bit the identity may be elided — a
/// global-phase identity would shift amplitudes.
bool is_exact_identity(const Matrix& u) {
  for (Index r = 0; r < u.rows(); ++r) {
    for (Index c = 0; c < u.cols(); ++c) {
      if (u(r, c) != (r == c ? Cplx{1.0, 0.0} : Cplx{0.0, 0.0})) {
        return false;
      }
    }
  }
  return true;
}

std::string fused_label(const std::string& later, const std::string& earlier) {
  std::string l = later + "*" + earlier;
  if (l.size() > 24) {
    l.resize(21);
    l += "...";
  }
  return l;
}

/// Pass 1: single-qubit run composition. Emits into `out` (op list with the
/// original ops' classifications preserved; composed gates are classified
/// by Operation::set_gate).
class OneQubitFuser {
 public:
  OneQubitFuser(int n_qubits, FusionStats& stats)
      : pending_(static_cast<std::size_t>(n_qubits)), stats_(stats) {}

  void feed(const Operation& op, std::vector<Operation>& out) {
    if (op.kind == OpKind::kUnitary && op.qubits.size() == 1) {
      Pending& p = pending_[static_cast<std::size_t>(op.qubits[0])];
      if (p.active) {
        p.u = op.matrix() * p.u;  // op is applied after the pending run
        p.label = fused_label(op.label, p.label);
        ++stats_.fused_1q;
      } else {
        p.active = true;
        p.u = op.matrix();
        p.label = op.label;
      }
      return;
    }
    if (op.kind == OpKind::kUnitary) {
      // Multi-qubit unitary: flush only the wires it touches; pending gates
      // on other wires commute with it exactly and may keep accumulating.
      for (const int q : op.qubits) {
        flush_wire(q, out);
      }
    } else {
      // Branch points (measure/reset) and classically coupled ops
      // (conditional, initialize) flush everything: unitaries are cheapest
      // applied before the state branches, and the trailing-measure run must
      // stay trailing.
      flush_all(out);
    }
    out.push_back(op);
  }

  void flush_all(std::vector<Operation>& out) {
    for (std::size_t q = 0; q < pending_.size(); ++q) {
      flush_wire(static_cast<int>(q), out);
    }
  }

 private:
  struct Pending {
    bool active = false;
    Matrix u;
    std::string label;
  };

  void flush_wire(int q, std::vector<Operation>& out) {
    Pending& p = pending_[static_cast<std::size_t>(q)];
    if (!p.active) {
      return;
    }
    p.active = false;
    if (is_exact_identity(p.u)) {
      ++stats_.dropped_identity;
      return;
    }
    Operation op;
    op.kind = OpKind::kUnitary;
    op.qubits = {q};
    op.set_gate(std::move(p.u));
    op.label = std::move(p.label);
    out.push_back(std::move(op));
  }

  std::vector<Pending> pending_;
  FusionStats& stats_;
};

bool is_monomial_unitary(const Operation& op) {
  return op.kind == OpKind::kUnitary && (op.gclass().structure == GateStructure::kDiagonal ||
                                         op.gclass().structure == GateStructure::kPermutation);
}

/// Column form of a product of diagonal / permutation (monomial) gates over a
/// small wire set: column s of the composed operator holds `val[s]` at row
/// `rowof[s]`. Monomial matrices are closed under products, so composing one
/// more gate never leaves this form — and the product is itself diagonal
/// exactly when rowof is the identity (e.g. x·diag·x), a pure permutation
/// exactly when every val is 1 (e.g. x·cx).
struct MonomialState {
  std::vector<int> wires;  ///< wires[0] is the matrix HIGH bit (engine order)
  std::vector<Index> rowof;
  Vector val;

  void init(const QubitList& q) {
    wires = q.to_vector();
    const std::size_t dim = std::size_t{1} << wires.size();
    rowof.resize(dim);
    val.assign(dim, Cplx{1.0, 0.0});
    for (std::size_t s = 0; s < dim; ++s) {
      rowof[s] = static_cast<Index>(s);
    }
  }

  /// Full-space bit position of `qubit` (wires[0] highest), -1 if absent.
  int bit_of(int qubit) const {
    for (std::size_t j = 0; j < wires.size(); ++j) {
      if (wires[j] == qubit) {
        return static_cast<int>(wires.size() - 1 - j);
      }
    }
    return -1;
  }

  bool covers(const QubitList& q) const {
    for (const int qb : q) {
      if (bit_of(qb) < 0) {
        return false;
      }
    }
    return true;
  }

  /// Re-embeds the composed form into the larger wire set `q` (a superset of
  /// the current wires), adopting q's bit order.
  void expand(const QubitList& q) {
    MonomialState old = *this;
    init(q);
    const int k = static_cast<int>(old.wires.size());
    std::vector<int> bpos(old.wires.size());
    for (std::size_t j = 0; j < old.wires.size(); ++j) {
      bpos[j] = bit_of(old.wires[j]);
    }
    for (std::size_t s = 0; s < rowof.size(); ++s) {
      std::size_t sub = 0;
      for (int j = 0; j < k; ++j) {
        sub |= ((s >> bpos[static_cast<std::size_t>(j)]) & 1u) << (k - 1 - j);
      }
      const auto r = static_cast<std::size_t>(old.rowof[sub]);
      std::size_t row = s;
      for (int j = 0; j < k; ++j) {
        const std::size_t bit = std::size_t{1} << bpos[static_cast<std::size_t>(j)];
        row = ((r >> (k - 1 - j)) & 1u) ? (row | bit) : (row & ~bit);
      }
      rowof[s] = static_cast<Index>(row);
      val[s] = old.val[sub];
    }
  }

  /// Composes a later monomial op (qubits ⊆ wires) into the form.
  void apply(const Operation& op) {
    const int k = static_cast<int>(op.qubits.size());
    const std::size_t subdim = std::size_t{1} << k;
    // The op's own column form: column c → a_val at row a_row. Both gate
    // structures guarantee exactly one nonzero per column.
    std::vector<std::size_t> a_row(subdim, 0);
    Vector a_val(subdim, Cplx{1.0, 0.0});
    for (std::size_t c = 0; c < subdim; ++c) {
      for (std::size_t r = 0; r < subdim; ++r) {
        const Cplx v = op.matrix()(static_cast<Index>(r), static_cast<Index>(c));
        if (v != Cplx{0.0, 0.0}) {
          a_row[c] = r;
          a_val[c] = v;
          break;
        }
      }
    }
    std::vector<int> bpos(op.qubits.size());
    for (std::size_t j = 0; j < op.qubits.size(); ++j) {
      bpos[j] = bit_of(op.qubits[j]);
    }
    for (std::size_t s = 0; s < rowof.size(); ++s) {
      auto cur = static_cast<std::size_t>(rowof[s]);
      std::size_t sub = 0;
      for (int j = 0; j < k; ++j) {
        sub |= ((cur >> bpos[static_cast<std::size_t>(j)]) & 1u) << (k - 1 - j);
      }
      for (int j = 0; j < k; ++j) {
        const std::size_t bit = std::size_t{1} << bpos[static_cast<std::size_t>(j)];
        cur = ((a_row[sub] >> (k - 1 - j)) & 1u) ? (cur | bit) : (cur & ~bit);
      }
      rowof[s] = static_cast<Index>(cur);
      val[s] *= a_val[sub];
    }
  }

  bool is_diagonal() const {
    for (std::size_t s = 0; s < rowof.size(); ++s) {
      if (rowof[s] != static_cast<Index>(s)) {
        return false;
      }
    }
    return true;
  }

  bool is_permutation() const {
    for (const Cplx& v : val) {
      if (v != Cplx{1.0, 0.0}) {
        return false;
      }
    }
    return true;
  }

  Matrix to_matrix() const {
    const auto dim = static_cast<Index>(rowof.size());
    Matrix m(dim, dim);
    for (std::size_t s = 0; s < rowof.size(); ++s) {
      m(rowof[s], static_cast<Index>(s)) = val[s];
    }
    return m;
  }
};

/// Pass 2: collapse contiguous runs of diagonal / permutation gates on one
/// small wire cluster through the monomial column form — x·diag·x is again
/// diagonal, cx·cx cancels outright. A run extends while the next op's
/// wires stay inside the cluster (or grow it, 1q seed → containing gate, up
/// to 3 wires); it is rewritten only when the composed product classifies
/// better than its pieces (diagonal, permutation, or the exact identity) —
/// a generic monomial product keeps the original structured ops instead.
void merge_monomial_runs(std::vector<Operation>& ops, FusionStats& stats) {
  std::vector<Operation> out;
  out.reserve(ops.size());
  std::size_t i = 0;
  while (i < ops.size()) {
    if (!is_monomial_unitary(ops[i])) {
      out.push_back(std::move(ops[i]));
      ++i;
      continue;
    }
    MonomialState st;
    st.init(ops[i].qubits);
    st.apply(ops[i]);
    std::string label = ops[i].label;
    // Longest prefix of the run whose product is still diagonal/permutation.
    std::size_t best_count = 1;
    MonomialState best_state = st;
    std::string best_label = label;
    std::size_t count = 1;
    for (std::size_t j = i + 1; j < ops.size() && is_monomial_unitary(ops[j]); ++j) {
      const QubitList& q = ops[j].qubits;
      const bool q_covers_wires =
          std::all_of(st.wires.begin(), st.wires.end(), [&q](const int w) {
            return std::find(q.begin(), q.end(), w) != q.end();
          });
      if (st.covers(q)) {
        st.apply(ops[j]);
      } else if (q.size() <= 3 && q_covers_wires) {
        st.expand(q);
        st.apply(ops[j]);
      } else {
        break;
      }
      label = fused_label(ops[j].label, label);
      ++count;
      if (st.is_diagonal() || st.is_permutation()) {
        best_count = count;
        best_state = st;
        best_label = label;
      }
    }
    if (best_count < 2) {
      out.push_back(std::move(ops[i]));
      ++i;
      continue;
    }
    stats.merged_monomial += best_count - 1;
    i += best_count;
    if (best_state.is_diagonal() && best_state.is_permutation()) {
      ++stats.dropped_identity;  // the product is exactly the identity
      continue;
    }
    Operation op;
    op.kind = OpKind::kUnitary;
    op.qubits = best_state.wires;
    op.set_gate(best_state.to_matrix());
    op.label = std::move(best_label);
    out.push_back(std::move(op));
  }
  ops = std::move(out);
}

}  // namespace

Circuit fuse_range(const Circuit& c, std::size_t begin, std::size_t end, FusionStats* stats) {
  QCUT_CHECK(begin <= end && end <= c.size(), "fuse_range: op range out of bounds");
  // Always tally into a fresh local so the metrics registry gets exactly this
  // call's delta even when the caller accumulates across many calls.
  FusionStats st;
  st.ops_before += end - begin;

  std::vector<Operation> pass1;
  pass1.reserve(end - begin);
  OneQubitFuser fuser(c.n_qubits(), st);
  for (std::size_t t = begin; t < end; ++t) {
    fuser.feed(c.ops()[t], pass1);
  }
  fuser.flush_all(pass1);
  merge_monomial_runs(pass1, st);

  Circuit out(c.n_qubits(), c.n_cbits());
  out.reserve(pass1.size());
  for (Operation& op : pass1) {
    out.push_op(std::move(op));
  }
  st.ops_after += out.size();

  obs::count(obs::Counter::kFusionOpsBefore, st.ops_before);
  obs::count(obs::Counter::kFusionOpsAfter, st.ops_after);
  obs::count(obs::Counter::kFusionFused1q, st.fused_1q);
  obs::count(obs::Counter::kFusionMergedMonomial, st.merged_monomial);
  obs::count(obs::Counter::kFusionDroppedIdentity, st.dropped_identity);
  if (stats != nullptr) {
    *stats += st;
  }
  return out;
}

Circuit fuse_circuit(const Circuit& c, FusionStats* stats) {
  return fuse_range(c, 0, c.size(), stats);
}

}  // namespace qcut
