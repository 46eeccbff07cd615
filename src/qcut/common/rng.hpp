// Deterministic random number generation.
//
// qcut uses xoshiro256++ streams seeded through splitmix64. Every Monte-Carlo
// task derives its own stream from (master_seed, task_id), so results are
// bit-reproducible regardless of how tasks are scheduled across threads.
//
// Rng satisfies UniformRandomBitGenerator, so the <random> distributions can
// be used directly; convenience wrappers for the distributions the library
// needs (uniform, normal, Bernoulli, binomial, categorical) are provided.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "qcut/common/types.hpp"

namespace qcut {

/// splitmix64 step: the canonical seeding PRNG (Vigna). Used to expand a
/// single 64-bit seed into the 256-bit xoshiro state and into per-task seeds.
std::uint64_t splitmix64_next(std::uint64_t& state);

/// xoshiro256++ engine (Blackman & Vigna). Small, fast, and passes BigCrush.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state by iterating splitmix64 from `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Stream constructor: mixes `seed` and `stream` so that different streams
  /// are statistically independent. Used by ThreadPool-parallel Monte Carlo.
  Rng(std::uint64_t seed, std::uint64_t stream);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()() noexcept;

  /// 2^128 jump: advances the stream as if 2^128 outputs were drawn. Allows
  /// carving non-overlapping substreams out of one seed.
  void jump() noexcept;

  /// Uniform real in [0, 1).
  Real uniform() noexcept;

  /// Uniform real in [lo, hi).
  Real uniform(Real lo, Real hi) noexcept;

  /// Uniform integer in [0, n). Uses Lemire's rejection method (unbiased).
  std::uint64_t uniform_u64(std::uint64_t n) noexcept;

  /// Standard normal via Box–Muller with caching of the second variate.
  Real normal() noexcept;

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool bernoulli(Real p) noexcept;

  /// Binomial(n, p) sample on q = min(p, 1 − p), flipped back for p > 0.5.
  /// For n·q < 30 it sums geometric waiting times, which is exact and
  /// O(n·q) expected. For n·q ≥ 30 it draws N(n·q, n·q·(1 − q)), clamped to
  /// [0, n] and stochastically rounded: the mean holds, the law does not
  /// (ROADMAP item 6).
  std::uint64_t binomial(std::uint64_t n, Real p) noexcept;

  /// Draws an index from an unnormalized non-negative weight vector.
  /// O(m) per draw.
  std::size_t categorical(const std::vector<Real>& weights) noexcept;

 private:
  std::uint64_t s_[4];
  Real cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Multinomial sample: distributes `n` trials over `probs` (must sum to ~1).
/// Uses the conditional-binomial decomposition, which is exact.
std::vector<std::uint64_t> multinomial(Rng& rng, std::uint64_t n,
                                       const std::vector<Real>& probs);

}  // namespace qcut
