// Shot planning: turning a Qpd plus a shot budget into a deterministic batch
// of independent work units.
//
// A ShotPlan fixes, up front and independently of how it will be executed,
// (a) how many shots each QPD term receives and (b) how those shots are split
// into TermBatch work units. Each batch carries its own RNG substream id, so
// a parallel driver produces bit-identical results for any thread-pool size
// (including 1): the randomness consumed by a batch depends only on
// (master seed, batch.stream), never on scheduling order.
//
// Two plan kinds mirror the two estimators of the paper:
//  * kAllocated — the Sec. IV experiment: the budget is split across terms by
//    an AllocRule (proportional to |c_i| by default) and the term means are
//    recombined as Σ c_i ⟨outcome⟩_i;
//  * kSampled   — textbook Eq. 12 importance sampling: term counts are drawn
//    from a multinomial over p_i = |c_i|/κ and recombined as
//    κ·sign(c_i)·outcome averages. The multinomial is a chain of
//    Rng::binomial draws, which use a normal approximation at n·q ≥ 30, so
//    it matches per-shot categorical sampling in mean, not exactly in law
//    (ROADMAP item 6).
#pragma once

#include <cstdint>
#include <vector>

#include "qcut/qpd/qpd.hpp"
#include "qcut/qpd/shot_alloc.hpp"

namespace qcut {

/// One independent work unit: `shots` executions of QPD term `term`, driven
/// by RNG substream `stream` of the run's master seed.
struct TermBatch {
  std::size_t term = 0;
  std::uint64_t shots = 0;
  std::uint64_t stream = 0;
};

enum class PlanKind {
  kAllocated,  ///< fixed per-term budget, recombine Σ c_i ⟨o⟩_i
  kSampled,    ///< multinomial term counts, recombine κ Σ sign_i ⟨o⟩
};

struct ShotPlan {
  PlanKind kind = PlanKind::kAllocated;
  std::uint64_t total_shots = 0;
  std::vector<std::uint64_t> shots_per_term;  ///< one entry per QPD term
  /// Only terms with shots > 0; a term's batches are adjacent, in stream order.
  std::vector<TermBatch> batches;

  /// Default split granularity: one RNG substream per batch. It fixes the
  /// bits of every estimate, not their law or the parallelism (per term).
  static constexpr std::uint64_t kDefaultMaxBatchShots = 4096;
  /// The substream of a run's seed that a sampled plan draws its term split
  /// from; batch streams count up from 0, so none reaches it.
  static constexpr std::uint64_t kPlanStream = ~std::uint64_t{0};

  /// The paper's allocation scheme. `sigmas` is only consulted for
  /// AllocRule::kNeyman (per-term outcome standard deviations).
  static ShotPlan allocated(const Qpd& qpd, std::uint64_t shots, AllocRule rule,
                            const std::vector<Real>* sigmas = nullptr,
                            std::uint64_t max_batch_shots = kDefaultMaxBatchShots);

  /// Eq. 12 importance sampling: the multinomial term split is drawn from
  /// Rng(seed, kPlanStream), so run_plan(…, seed) on the plan draws its
  /// batches from substreams disjoint from the split's.
  static ShotPlan sampled(const Qpd& qpd, std::uint64_t shots, std::uint64_t seed);

  /// Wraps an externally computed allocation (one entry per term) into a
  /// plan; allocated and sampled end here.
  static ShotPlan from_allocation(PlanKind kind, const Qpd& qpd,
                                  std::vector<std::uint64_t> shots_per_term,
                                  std::uint64_t max_batch_shots = kDefaultMaxBatchShots);
};

}  // namespace qcut
