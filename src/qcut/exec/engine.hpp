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
// exact backend computes every term's P(−1) there, on request_pool(), the
// pool of the calling request's context (common/request_context.hpp), and
// only once per backend, so a warm backend runs no pool task. Invoked from a
// worker of that pool, the fan-out runs inline on that worker (the pool's
// parallel_for decides that — same bits, no deadlock). Then every batch's
// draw runs inline, in plan order, on the calling thread.
// Outer sweeps that drive a single rng through many estimates (e.g.
// run_fig6's per-state loop) use run_plan_with_rng instead.
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

/// Legacy serial driver: runs the plan's batches in order, drawing every
/// batch from the single caller-supplied `rng`. This reproduces the exact
/// random stream of the pre-engine estimators (and is safe inside ThreadPool
/// tasks — it never touches a pool).
EstimationResult run_plan_with_rng(const Qpd& qpd, const ShotPlan& plan,
                                   const ExecutionBackend& backend, Rng& rng);

}  // namespace qcut
