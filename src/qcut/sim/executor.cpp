#include "qcut/sim/executor.hpp"

#include <algorithm>
#include <cstdint>

#include "qcut/common/cancel.hpp"
#include "qcut/linalg/kron.hpp"
#include "qcut/linalg/ptrace.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/sim/gates.hpp"

namespace qcut {

namespace {

Vector default_initial(int n_qubits) {
  // Reject over-wide circuits before allocating 2^n amplitudes — the check
  // must come first or a 30-qubit monolithic run dies on bad_alloc/OOM
  // instead of the statevector cap's Error.
  QCUT_CHECK(n_qubits >= 1 && n_qubits <= Statevector::kMaxQubits,
             "run: circuit too wide for monolithic simulation — use the fragment path");
  Vector v(std::size_t{1} << n_qubits, Cplx{0.0, 0.0});
  v[0] = Cplx{1.0, 0.0};
  return v;
}

}  // namespace

ShotOutcome run_shot(const Circuit& c, Rng& rng) {
  return run_shot(c, rng, default_initial(c.n_qubits()));
}

ShotOutcome run_shot(const Circuit& c, Rng& rng, const Vector& initial) {
  Statevector sv(c.n_qubits(), initial);
  std::vector<int> cbits(static_cast<std::size_t>(c.n_cbits()), 0);
  for (const auto& op : c.ops()) {
    switch (op.kind) {
      case OpKind::kUnitary:
        sv.apply(op.matrix(), op.qubits, op.gclass());
        break;
      case OpKind::kCondUnitary:
        if (cbits[static_cast<std::size_t>(op.cbit)] == 1) {
          sv.apply(op.matrix(), op.qubits, op.gclass());
        }
        break;
      case OpKind::kMeasure:
        cbits[static_cast<std::size_t>(op.cbit)] = sv.measure(op.qubits[0], rng);
        break;
      case OpKind::kReset:
        sv.reset(op.qubits[0], rng);
        break;
      case OpKind::kInitialize:
        sv.initialize(op.qubits, op.init_state());
        break;
    }
  }
  return {std::move(cbits), std::move(sv)};
}

std::map<std::string, std::uint64_t> run_counts(const Circuit& c, std::uint64_t shots, Rng& rng) {
  std::map<std::string, std::uint64_t> counts;
  for (std::uint64_t s = 0; s < shots; ++s) {
    const ShotOutcome out = run_shot(c, rng);
    std::string key(out.cbits.size(), '0');
    for (std::size_t i = 0; i < out.cbits.size(); ++i) {
      key[i] = out.cbits[i] ? '1' : '0';
    }
    ++counts[key];
  }
  return counts;
}

std::vector<Branch> run_branches(const Circuit& c, Real prune_tol) {
  return run_branches(c, default_initial(c.n_qubits()), prune_tol);
}

std::vector<Branch> run_branches(const Circuit& c, const Vector& initial, Real prune_tol) {
  return run_branches(c, initial, std::vector<int>(static_cast<std::size_t>(c.n_cbits()), 0),
                      prune_tol);
}

std::vector<Branch> run_branches(const Circuit& c, const Vector& initial,
                                 const std::vector<int>& initial_cbits, Real prune_tol) {
  QCUT_CHECK(initial_cbits.size() == static_cast<std::size_t>(c.n_cbits()),
             "run_branches: initial_cbits/register size mismatch");
  std::vector<Branch> branches;
  branches.push_back({1.0, initial_cbits, Statevector(c.n_qubits(), initial)});
  advance_branches(branches, c, 0, c.ops().size(), prune_tol);
  return branches;
}

void advance_branches(std::vector<Branch>& branches, const Circuit& c, std::size_t op_begin,
                      std::size_t op_end, Real prune_tol) {
  QCUT_CHECK(op_begin <= op_end && op_end <= c.ops().size(),
             "advance_branches: op range out of bounds");
  for (std::size_t t = op_begin; t < op_end; ++t) {
    // Op steps are branch enumeration's cancellation quantum: each step
    // sweeps every live branch, so polling here is coarse even when the
    // branch population is huge — and never reaches inside the kernels.
    cancel_poll();
    const Operation& op = c.ops()[t];
    switch (op.kind) {
      case OpKind::kUnitary:
        for (auto& b : branches) {
          b.state.apply(op.matrix(), op.qubits, op.gclass());
        }
        break;
      case OpKind::kCondUnitary:
        for (auto& b : branches) {
          if (b.cbits[static_cast<std::size_t>(op.cbit)] == 1) {
            b.state.apply(op.matrix(), op.qubits, op.gclass());
          }
        }
        break;
      case OpKind::kInitialize:
        for (auto& b : branches) {
          b.state.initialize(op.qubits, op.init_state());
        }
        break;
      case OpKind::kMeasure:
      case OpKind::kReset: {
        std::vector<Branch> next;
        next.reserve(branches.size() * 2);
        const int q = op.qubits[0];
        std::uint64_t pruned = 0;
        for (auto& b : branches) {
          const Real p1 = b.state.prob_one(q);
          const Real probs[2] = {1.0 - p1, p1};
          // An outcome lives only if p > prune_tol AND p > 0: a p = 0 branch
          // must be dropped even when the caller passes prune_tol < 0 (a zero
          // state would renormalize to NaN downstream), and a NaN p (corrupt
          // upstream state) fails both comparisons, so it cannot survive.
          bool live[2];
          for (int outcome = 0; outcome <= 1; ++outcome) {
            live[outcome] = probs[outcome] > prune_tol && probs[outcome] > 0.0;
            pruned += live[outcome] ? 0 : 1;
          }
          for (int outcome = 0; outcome <= 1; ++outcome) {
            if (!live[outcome]) {
              continue;
            }
            const Real p = probs[outcome];
            // The last surviving outcome takes the parent branch and projects
            // its state in place; an earlier one gets a projected copy built
            // in one pass. Both are bit-equal to copy + project, and a branch
            // with one surviving outcome allocates no new state.
            const bool last = outcome == 1 || !live[1];
            Branch nb = last ? Branch{b.prob * p, std::move(b.cbits), std::move(b.state)}
                             : Branch{b.prob * p, b.cbits,
                                      Statevector::projected(b.state, q, outcome)};
            if (last) {
              nb.state.project(q, outcome);
            }
            if (op.kind == OpKind::kMeasure) {
              nb.cbits[static_cast<std::size_t>(op.cbit)] = outcome;
            } else if (outcome == 1) {
              nb.state.apply(gates::x(), {q});  // reset: flip |1⟩ back to |0⟩
            }
            next.push_back(std::move(nb));
          }
        }
        obs::count(obs::Counter::kBranchesEnumerated, next.size());
        obs::count(obs::Counter::kBranchesPruned, pruned);
        branches = std::move(next);
        break;
      }
    }
  }
}

Real exact_expectation_pauli(const Circuit& c, const std::string& pauli) {
  return exact_expectation_pauli(c, pauli, default_initial(c.n_qubits()));
}

Real exact_expectation_pauli(const Circuit& c, const std::string& pauli, const Vector& initial) {
  Real acc = 0.0;
  for (const auto& b : run_branches(c, initial)) {
    acc += b.prob * b.state.expectation_pauli(pauli);
  }
  return acc;
}

Real exact_prob_cbit(const Circuit& c, int cbit, const Vector& initial) {
  QCUT_CHECK(cbit >= 0 && cbit < c.n_cbits(), "exact_prob_cbit: cbit out of range");
  Real acc = 0.0;
  for (const auto& b : run_branches(c, initial)) {
    if (b.cbits[static_cast<std::size_t>(cbit)] == 1) {
      acc += b.prob;
    }
  }
  return acc;
}

Real exact_expectation_cbit_sign(const Circuit& c, int cbit, const Vector& initial) {
  return 1.0 - 2.0 * exact_prob_cbit(c, cbit, initial);
}

Matrix run_density(const Circuit& c, const Matrix& initial_rho) {
  struct DBranch {
    std::vector<int> cbits;
    DensityMatrix dm;
  };
  std::vector<DBranch> branches;
  branches.push_back({std::vector<int>(static_cast<std::size_t>(c.n_cbits()), 0),
                      DensityMatrix(c.n_qubits(), initial_rho)});

  for (const auto& op : c.ops()) {
    switch (op.kind) {
      case OpKind::kUnitary:
        for (auto& b : branches) {
          b.dm.apply_unitary(op.matrix(), op.qubits);
        }
        break;
      case OpKind::kCondUnitary:
        for (auto& b : branches) {
          if (b.cbits[static_cast<std::size_t>(op.cbit)] == 1) {
            b.dm.apply_unitary(op.matrix(), op.qubits);
          }
        }
        break;
      case OpKind::kInitialize: {
        // Prepare via the state-preparation unitary: the affected qubits are
        // in |0..0⟩ in every branch (library contract), so U_prep acts as the
        // intended initialization.
        const Matrix u = gates::prep_unitary(op.init_state());
        for (auto& b : branches) {
          b.dm.apply_unitary(u, op.qubits);
        }
        break;
      }
      case OpKind::kMeasure: {
        std::vector<DBranch> next;
        next.reserve(branches.size() * 2);
        const int q = op.qubits[0];
        for (auto& b : branches) {
          for (int outcome = 0; outcome <= 1; ++outcome) {
            DBranch nb{b.cbits, b.dm};
            (void)nb.dm.project_unnormalized(q, outcome);
            // Prune on matrix norm, not trace: run_density is also used with
            // non-PSD inputs (matrix units, for Choi construction), whose
            // projected branches can be traceless yet nonzero.
            if (nb.dm.rho().norm() <= 1e-15) {
              continue;
            }
            nb.cbits[static_cast<std::size_t>(op.cbit)] = outcome;
            next.push_back(std::move(nb));
          }
        }
        branches = std::move(next);
        break;
      }
      case OpKind::kReset:
        for (auto& b : branches) {
          b.dm.reset(op.qubits[0]);
        }
        break;
    }
  }

  const Index dim = Index{1} << c.n_qubits();
  Matrix acc(dim, dim);
  for (const auto& b : branches) {
    acc += b.dm.rho();
  }
  return acc;
}

Channel circuit_channel(const Circuit& c, const std::vector<int>& discard_qubits) {
  // Build the Choi matrix of the induced map on the kept qubits by feeding in
  // matrix units |i⟩⟨j| (via linearity of run_density).
  std::vector<int> kept;
  for (int q = 0; q < c.n_qubits(); ++q) {
    if (std::find(discard_qubits.begin(), discard_qubits.end(), q) == discard_qubits.end()) {
      kept.push_back(q);
    }
  }
  const int nk = static_cast<int>(kept.size());
  QCUT_CHECK(nk >= 1, "circuit_channel: all qubits discarded");
  const Index din = Index{1} << c.n_qubits();
  const Index dkept = Index{1} << nk;

  Matrix choi(dkept * dkept, dkept * dkept);
  // The map is defined on the kept qubits; discarded qubits start in |0⟩.
  // Scatter the kept sub-index into a full-circuit basis index.
  auto expand = [&](Index sub) {
    Index idx = 0;
    for (int j = 0; j < nk; ++j) {
      const Index bit = (sub >> (nk - 1 - j)) & 1;
      idx |= bit << (c.n_qubits() - 1 - kept[static_cast<std::size_t>(j)]);
    }
    return idx;
  };

  for (Index i = 0; i < dkept; ++i) {
    for (Index j = 0; j < dkept; ++j) {
      Matrix ein(din, din);
      ein(expand(i), expand(j)) = Cplx{1.0, 0.0};
      const Matrix out_full = run_density(c, ein);
      const Matrix out = partial_trace(out_full, discard_qubits, c.n_qubits());
      for (Index r = 0; r < dkept; ++r) {
        for (Index col = 0; col < dkept; ++col) {
          choi(i * dkept + r, j * dkept + col) += out(r, col);
        }
      }
    }
  }
  return choi_to_kraus(choi, dkept, dkept, 1e-10);
}

}  // namespace qcut
