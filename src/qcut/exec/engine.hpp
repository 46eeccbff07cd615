// The execution engine: one batched, parallel function behind every
// shot-consuming path in qcut. The caller picks the backend and builds the
// plan; the engine owns no configuration.
//
// run_plan runs a ShotPlan against an ExecutionBackend:
//  * each TermBatch gets its own counter-based RNG substream
//    Rng(seed, batch.stream), so the estimate is bit-identical for any
//    thread-pool size (including 1) — randomness never depends on scheduling;
//  * per-batch outcome counts are integers, reduced per term in a fixed
//    order, so the floating-point recombination is also deterministic;
//  * the combine step implements both estimator laws (allocated / sampled)
//    from the per-term counts alone.
//
// Parallelism: run_plan first calls backend.prepare(), the one fan-out: the
// exact backend computes every term's P(−1) there, once per backend (a warm
// one runs no pool task), on request_pool(), the pool of the calling
// request's context (common/request_context.hpp), when the QPD's work pays
// for it (fanout_pays, cut/fragment.hpp), else inline; from a worker of that
// pool it runs inline (parallel_for decides that). Same bits either way.
// Then every batch's draw runs inline, in plan order, on the calling thread.
// run_plan is the only way to draw shots: an outer sweep (run_fig6's
// per-state loop, a bench's trials) passes one seed per estimate.
#pragma once

#include <cstdint>

#include "qcut/exec/backend.hpp"
#include "qcut/exec/shot_plan.hpp"
#include "qcut/qpd/estimator.hpp"

namespace qcut {

/// Prepares `backend`, runs every batch of `plan` against it with per-batch
/// substreams of `seed`, then recombines. Bit-identical across pool sizes.
/// The backend must be bound to `qpd`.
EstimationResult run_plan(const Qpd& qpd, const ShotPlan& plan, const ExecutionBackend& backend,
                          std::uint64_t seed);

/// Recombines per-term −1-outcome counts into an EstimationResult according
/// to the plan's kind. Exposed for drivers and tests.
EstimationResult combine_counts(const Qpd& qpd, const ShotPlan& plan,
                                const std::vector<std::uint64_t>& ones_per_term);

}  // namespace qcut
