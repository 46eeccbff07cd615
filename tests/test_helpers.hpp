// Shared test utilities.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "qcut/common/rng.hpp"
#include "qcut/linalg/matrix.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/sim/circuit.hpp"
#include "bench_shapes.hpp"
#include "pool_scope.hpp"

namespace qcut::testing {

/// h(0), cx(0,1), ..., cx(n-2,n-1): the canonical chain workload of the
/// cutter and planner suites.
inline Circuit ghz_line(int n) {
  Circuit c(n, 0);
  c.h(0);
  for (int q = 0; q + 1 < n; ++q) {
    c.cx(q, q + 1);
  }
  return c;
}

/// Random mix of Haar 1- and 2-qubit (nearest-neighbor) gates.
inline Circuit random_unitary_circuit(int n, int depth, Rng& rng) {
  Circuit c(n, 0);
  for (int d = 0; d < depth; ++d) {
    if (n >= 2 && rng.bernoulli(0.5)) {
      const int q = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n - 1)));
      c.gate(haar_unitary(4, rng), {q, q + 1}, "U2");
    } else {
      const int q = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n)));
      c.gate(haar_unitary(2, rng), {q}, "U1");
    }
  }
  return c;
}

/// FNV-1a 64 of `bytes`: the digest the pinned-output tests compare.
inline std::uint64_t fnv64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

inline void expect_matrix_near(const Matrix& a, const Matrix& b, Real tol = 1e-9,
                               const char* what = "") {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_TRUE(a.approx_equal(b, tol)) << what << "\nlhs =\n"
                                      << a.to_string() << "\nrhs =\n"
                                      << b.to_string();
}

inline void expect_vector_near(const Vector& a, const Vector& b, Real tol = 1e-9) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].real(), b[i].real(), tol) << "entry " << i;
    EXPECT_NEAR(a[i].imag(), b[i].imag(), tol) << "entry " << i;
  }
}

/// The byte mutations of the parser robustness tests.
enum class Mutation { kFlip, kInsert, kDelete, kDuplicate, kTruncate };

inline constexpr Mutation kAllMutations[] = {Mutation::kFlip, Mutation::kInsert,
                                             Mutation::kDelete, Mutation::kDuplicate,
                                             Mutation::kTruncate};

inline const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kFlip:
      return "flip";
    case Mutation::kInsert:
      return "insert";
    case Mutation::kDelete:
      return "delete";
    case Mutation::kDuplicate:
      return "duplicate";
    case Mutation::kTruncate:
      return "truncate";
  }
  return "?";
}

/// `bytes` with one `kind` mutation at a position drawn from `rng`: flip one
/// bit, insert a random byte, delete a byte, copy a span of up to 16 bytes
/// to a random position, or cut the tail off. `Bytes` is std::string or
/// std::vector<std::uint8_t>.
template <class Bytes>
Bytes mutate_bytes(Bytes bytes, Mutation kind, Rng& rng) {
  using Byte = typename Bytes::value_type;
  const std::size_t n = bytes.size();
  switch (kind) {
    case Mutation::kFlip:
      if (n > 0) {
        bytes[rng.uniform_u64(n)] ^= static_cast<Byte>(1u << rng.uniform_u64(8));
      }
      break;
    case Mutation::kInsert:
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(rng.uniform_u64(n + 1)),
                   static_cast<Byte>(rng.uniform_u64(256)));
      break;
    case Mutation::kDelete:
      if (n > 0) {
        bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(rng.uniform_u64(n)));
      }
      break;
    case Mutation::kDuplicate:
      if (n > 0) {
        const std::size_t from = rng.uniform_u64(n);
        const std::size_t len = 1 + rng.uniform_u64(std::min<std::size_t>(16, n - from));
        const Bytes span(bytes.begin() + static_cast<std::ptrdiff_t>(from),
                         bytes.begin() + static_cast<std::ptrdiff_t>(from + len));
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(rng.uniform_u64(n + 1)),
                     span.begin(), span.end());
      }
      break;
    case Mutation::kTruncate:
      if (n > 0) {
        bytes.resize(rng.uniform_u64(n));
      }
      break;
  }
  return bytes;
}

}  // namespace qcut::testing
