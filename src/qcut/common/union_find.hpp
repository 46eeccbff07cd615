// Union-find (disjoint-set) with path halving. Shared by the planner's
// fragment-width analysis (plan/circuit_graph.cpp) and the per-term fragment
// extraction (cut/fragment.cpp).
#pragma once

#include <cstddef>
#include <numeric>
#include <vector>

namespace qcut {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n = 0) { reset(n); }

  /// n singletons again, reusing the storage.
  void reset(std::size_t n) {
    parent_.resize(n);
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace qcut
