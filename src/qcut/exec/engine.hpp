// The execution engine: one batched, parallel, cache-aware driver behind
// every shot-consuming path in qcut.
//
// An ExecutionEngine runs a ShotPlan against an ExecutionBackend:
//  * each TermBatch gets its own counter-based RNG substream
//    Rng(seed, batch.stream), so the estimate is bit-identical for any
//    thread-pool size (including 1) — randomness never depends on scheduling;
//  * per-batch outcome counts are integers, reduced per term in a fixed
//    order, so the floating-point recombination is also deterministic;
//  * the combine step implements both estimator laws (allocated / sampled)
//    from the per-term counts alone.
//
// Nesting note: the engine parallelizes over batches of ONE estimate. It
// queues the first batch of every distinct term ahead of all later batches,
// so the terms' exact enumerations (one per term, behind the backend's
// per-term once-flag) start together on different workers instead of one
// after another; a later batch of a term still waits for that term's
// enumeration. The batches run on request_pool(), the pool of the calling
// request's context (common/request_context.hpp). Invoked from a worker of
// that pool (an outer sweep already distributes work), run() executes its
// batches inline on that worker: the pool's parallel_for decides that —
// same bits, no deadlock. Outer sweeps that drive a single rng through many
// estimates (e.g. run_fig6's per-state loop) use run_plan_with_rng instead.
#pragma once

#include <cstdint>
#include <memory>

#include "qcut/exec/backend.hpp"
#include "qcut/exec/shot_plan.hpp"
#include "qcut/qpd/estimator.hpp"

namespace qcut {

struct EngineConfig {
  BackendKind backend = BackendKind::kBatchedBranch;
  /// Plan split granularity (shots per batch) for the convenience entry
  /// points. Affects parallelism and stream layout, never the law.
  std::uint64_t max_batch_shots = ShotPlan::kDefaultMaxBatchShots;
  /// When non-null, the convenience entry points (estimate_allocated /
  /// estimate_sampled) run against this caller-owned backend instead of
  /// constructing one — the service layer's cross-request reuse hook: a warm
  /// backend carries its branch/skeleton caches from prior runs of the same
  /// request. Must be bound to the Qpd passed in, and must outlive the call.
  /// `backend` is then only reported, not instantiated.
  const ExecutionBackend* shared_backend = nullptr;
};

class ExecutionEngine {
 public:
  explicit ExecutionEngine(EngineConfig cfg = {});

  const EngineConfig& config() const noexcept { return cfg_; }

  /// Paper's Sec. IV scheme on the configured backend.
  EstimationResult estimate_allocated(const Qpd& qpd, std::uint64_t shots, std::uint64_t seed,
                                      AllocRule rule = AllocRule::kProportional) const;

  /// Eq. 12 importance sampling on the configured backend. The multinomial
  /// term split draws from a dedicated plan substream of `seed`.
  EstimationResult estimate_sampled(const Qpd& qpd, std::uint64_t shots,
                                    std::uint64_t seed) const;

  /// Core driver: runs every batch of `plan` against `backend` with per-batch
  /// substreams of `seed`, then recombines. Bit-identical across pool sizes.
  EstimationResult run(const Qpd& qpd, const ShotPlan& plan, const ExecutionBackend& backend,
                       std::uint64_t seed) const;

 private:
  EngineConfig cfg_;
};

/// Recombines per-term −1-outcome counts into an EstimationResult according
/// to the plan's kind. Exposed for drivers and tests.
EstimationResult combine_counts(const Qpd& qpd, const ShotPlan& plan,
                                const std::vector<std::uint64_t>& ones_per_term);

/// Legacy serial driver: runs the plan's batches in order, drawing every
/// batch from the single caller-supplied `rng`. This reproduces the exact
/// random stream of the pre-engine estimators (and is safe inside ThreadPool
/// tasks — it never touches a pool).
EstimationResult run_plan_with_rng(const Qpd& qpd, const ShotPlan& plan,
                                   const ExecutionBackend& backend, Rng& rng);

}  // namespace qcut
