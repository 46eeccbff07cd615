#include "qcut/sim/gate_class.hpp"

namespace qcut {

namespace {

constexpr Cplx kZero{0.0, 0.0};
constexpr Cplx kOne{1.0, 0.0};

bool is_diagonal(const Matrix& u) {
  for (Index r = 0; r < u.rows(); ++r) {
    for (Index c = 0; c < u.cols(); ++c) {
      if (r != c && u(r, c) != kZero) {
        return false;
      }
    }
  }
  return true;
}

// Scratch lists sized for gates up to three qubits stay off the heap.
using IndexScratch = SmallVector<Index, 8>;
using FlagScratch = SmallVector<char, 8>;

/// Fills `image` when u is exactly a 0/1 permutation matrix.
bool is_permutation(const Matrix& u, IndexScratch& image) {
  const Index n = u.rows();
  image.assign(static_cast<std::size_t>(n), -1);
  FlagScratch row_hit(static_cast<std::size_t>(n), 0);
  for (Index c = 0; c < n; ++c) {
    Index one_row = -1;
    for (Index r = 0; r < n; ++r) {
      const Cplx v = u(r, c);
      if (v == kOne) {
        if (one_row >= 0) {
          return false;  // two ones in a column
        }
        one_row = r;
      } else if (v != kZero) {
        return false;
      }
    }
    if (one_row < 0 || row_hit[static_cast<std::size_t>(one_row)]) {
      return false;
    }
    row_hit[static_cast<std::size_t>(one_row)] = 1;
    image[static_cast<std::size_t>(c)] = one_row;
  }
  return true;
}

SmallVector<Index, 8> permutation_cycles(const IndexScratch& image) {
  SmallVector<Index, 8> cycles;
  FlagScratch seen(image.size(), 0);
  for (std::size_t s = 0; s < image.size(); ++s) {
    if (seen[s] || image[s] == static_cast<Index>(s)) {
      continue;  // fixed point
    }
    const std::size_t len_at = cycles.size();
    cycles.push_back(0);
    Index cur = static_cast<Index>(s);
    while (!seen[static_cast<std::size_t>(cur)]) {
      seen[static_cast<std::size_t>(cur)] = 1;
      cycles.push_back(cur);
      cur = image[static_cast<std::size_t>(cur)];
    }
    cycles[len_at] = static_cast<Index>(cycles.size() - len_at - 1);
  }
  return cycles;
}

}  // namespace

GateClass classify_gate(const Matrix& u) {
  GateClass cls;
  if (u.empty() || !u.square()) {
    return cls;
  }
  if (is_diagonal(u)) {
    cls.structure = GateStructure::kDiagonal;
    cls.dim = u.rows();
    cls.diag.resize(static_cast<std::size_t>(u.rows()));
    Index not_one = -1;
    int n_not_one = 0;
    for (Index i = 0; i < u.rows(); ++i) {
      cls.diag[static_cast<std::size_t>(i)] = u(i, i);
      if (u(i, i) != kOne) {
        not_one = i;
        ++n_not_one;
      }
    }
    if (n_not_one <= 1) {
      // n_not_one == 0 is the identity: mark sub-index 0, whose unit phase
      // the kernels skip.
      cls.phase_index = n_not_one == 1 ? not_one : 0;
    }
    return cls;
  }
  IndexScratch image;
  if (is_permutation(u, image)) {
    cls.structure = GateStructure::kPermutation;
    cls.dim = u.rows();
    cls.cycles = permutation_cycles(image);
    return cls;
  }
  return cls;
}

}  // namespace qcut
