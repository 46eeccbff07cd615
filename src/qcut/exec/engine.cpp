#include "qcut/exec/engine.hpp"

#include <cmath>

#include "qcut/common/cancel.hpp"
#include "qcut/common/error.hpp"
#include "qcut/common/fault.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/obs/trace.hpp"

namespace qcut {

namespace {

/// Substream id for randomness consumed during plan construction (the sampled
/// plan's multinomial split). Far outside the dense batch-id range, so it can
/// never collide with a batch stream.
constexpr std::uint64_t kPlanStream = 0x706c616e2d69644cULL;  // "plan-idL"
}  // namespace

EstimationResult combine_counts(const Qpd& qpd, const ShotPlan& plan,
                                const std::vector<std::uint64_t>& ones_per_term) {
  QCUT_CHECK(ones_per_term.size() == qpd.size(), "combine_counts: count/term mismatch");
  obs::TraceSpan span("engine.combine");
  obs::count(obs::Counter::kShotsSampled, plan.total_shots);
  EstimationResult res;
  res.kappa = qpd.kappa();
  res.shots_per_term = plan.shots_per_term;
  res.shots_used = plan.total_shots;

  Real acc = 0.0;
  for (std::size_t i = 0; i < qpd.size(); ++i) {
    const std::uint64_t n = plan.shots_per_term[i];
    if (n == 0) {
      continue;  // term contributes nothing at this budget (matches practice)
    }
    const std::uint64_t ones = ones_per_term[i];
    const QpdTerm& term = qpd.terms()[i];
    if (plan.kind == PlanKind::kAllocated) {
      // outcome mean: (+1)(n-ones) + (-1)(ones) over n
      const Real mean = 1.0 - 2.0 * static_cast<Real>(ones) / static_cast<Real>(n);
      acc += term.coefficient * mean;
    } else {
      const Real sign = term.coefficient >= 0.0 ? 1.0 : -1.0;
      acc += res.kappa * sign *
             (static_cast<Real>(n) - 2.0 * static_cast<Real>(ones));
    }
    res.entangled_pairs_used += n * static_cast<std::uint64_t>(term.entangled_pairs);
  }
  if (plan.kind == PlanKind::kSampled && plan.total_shots > 0) {
    acc /= static_cast<Real>(plan.total_shots);
  }
  res.estimate = acc;
  return res;
}

EstimationResult run_plan_with_rng(const Qpd& qpd, const ShotPlan& plan,
                                   const ExecutionBackend& backend, Rng& rng) {
  std::vector<std::uint64_t> ones_per_term(qpd.size(), 0);
  for (const TermBatch& batch : plan.batches) {
    cancel_poll();
    ones_per_term[batch.term] += backend.run_batch(batch, rng);
  }
  return combine_counts(qpd, plan, ones_per_term);
}

ExecutionEngine::ExecutionEngine(EngineConfig cfg) : cfg_(cfg) {
  QCUT_CHECK(cfg_.max_batch_shots >= 1, "ExecutionEngine: max_batch_shots must be >= 1");
}

EstimationResult ExecutionEngine::run(const Qpd& qpd, const ShotPlan& plan,
                                      const ExecutionBackend& backend,
                                      std::uint64_t seed) const {
  QCUT_CHECK(!qpd.empty(), "ExecutionEngine::run: empty QPD");
  QCUT_CHECK(plan.shots_per_term.size() == qpd.size(),
             "ExecutionEngine::run: plan built for a different QPD");
  obs::TraceSpan run_span("engine.run", static_cast<std::uint64_t>(plan.batches.size()));
  obs::count(obs::Counter::kBatchesRun, plan.batches.size());

  // Per-batch counts first (integer, order-independent), reduced per term in
  // index order afterwards — the estimate is bit-identical for any pool size.
  std::vector<std::uint64_t> batch_ones(plan.batches.size(), 0);
  // Batch starts are the engine's cancellation quantum. The token is captured
  // here and re-installed inside the lambda: parallel_for runs it on pool
  // workers whose thread-local scope is not the requesting thread's.
  CancelToken* cancel = current_cancel_token();
  const auto run_batch = [&, cancel](std::size_t b) {
    ScopedCancelScope scope(cancel);
    cancel_poll();
    fault::maybe_inject(fault::Site::kExecBatch);
    obs::TraceSpan span("engine.batch", static_cast<std::uint64_t>(plan.batches[b].term));
    Rng rng(seed, plan.batches[b].stream);
    batch_ones[b] = backend.run_batch(plan.batches[b], rng);
  };

  // Inline fallback when already on one of the pool's workers: re-entering
  // parallel_for there would deadlock (the blocked worker is needed to serve
  // its own subtasks). Same bits either way — streams are per batch.
  ThreadPool* pool = cfg_.pool != nullptr ? cfg_.pool : &global_pool();
  if (plan.batches.size() < cfg_.min_batches_to_parallelize || pool->on_worker_thread()) {
    for (std::size_t b = 0; b < plan.batches.size(); ++b) {
      run_batch(b);
    }
  } else {
    // Dispatch the first batch of every term before any term's second one. A
    // term's first batch runs its exact enumeration under the backend's
    // per-term once-flag (BranchCache), and later batches of that term wait
    // on it; queued in term order, the idle workers would pick up term 0's
    // later batches and block, so the terms would enumerate one after
    // another. The pool's FIFO queue starts the distinct terms together.
    const std::size_t n = plan.batches.size();
    std::vector<std::size_t> first_batch(qpd.size(), n);  // n: term not seen yet
    std::vector<std::size_t> order;
    order.reserve(n);
    for (std::size_t b = 0; b < n; ++b) {
      std::size_t& first = first_batch[plan.batches[b].term];
      if (first == n) {
        first = b;
        order.push_back(b);
      }
    }
    for (std::size_t b = 0; b < n; ++b) {
      if (first_batch[plan.batches[b].term] != b) {
        order.push_back(b);
      }
    }
    pool->parallel_for(0, n, [&](std::size_t i) { run_batch(order[i]); });
  }

  std::vector<std::uint64_t> ones_per_term(qpd.size(), 0);
  for (std::size_t b = 0; b < plan.batches.size(); ++b) {
    ones_per_term[plan.batches[b].term] += batch_ones[b];
  }
  return combine_counts(qpd, plan, ones_per_term);
}

EstimationResult ExecutionEngine::estimate_allocated(const Qpd& qpd, std::uint64_t shots,
                                                     std::uint64_t seed, AllocRule rule) const {
  const ShotPlan plan =
      ShotPlan::allocated(qpd, shots, rule, /*sigmas=*/nullptr, cfg_.max_batch_shots);
  if (cfg_.shared_backend != nullptr) {
    return run(qpd, plan, *cfg_.shared_backend, seed);
  }
  // The batched-branch backend also gets the engine's pool: when the plan is
  // too small for batch parallelism (wide runs often have few batches and
  // huge per-term enumeration cost), the per-term (fragment, read-assignment)
  // units still spread across it. Either way the result is bit-identical.
  const auto backend = make_backend(cfg_.backend, qpd, cfg_.pool);
  return run(qpd, plan, *backend, seed);
}

EstimationResult ExecutionEngine::estimate_sampled(const Qpd& qpd, std::uint64_t shots,
                                                   std::uint64_t seed) const {
  Rng plan_rng(seed, kPlanStream);
  const ShotPlan plan = ShotPlan::sampled(qpd, shots, plan_rng, cfg_.max_batch_shots);
  if (cfg_.shared_backend != nullptr) {
    return run(qpd, plan, *cfg_.shared_backend, seed);
  }
  const auto backend = make_backend(cfg_.backend, qpd, cfg_.pool);
  return run(qpd, plan, *backend, seed);
}

}  // namespace qcut
