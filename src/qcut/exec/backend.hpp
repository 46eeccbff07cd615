// Execution backends: how a TermBatch turns into an outcome count.
//
// Every backend produces the number of −1 outcomes ("ones") among the batch's
// shots. They are interchangeable in law:
//  * SerialShotBackend    — the reference semantics: every shot is a full
//    stochastic statevector simulation of the term circuit (what a quantum
//    device does). Kept for validation and as the honest-cost baseline.
//  * BatchedBranchBackend — enumerates the term's measurement branches once
//    (through its own BranchCache) and services the whole batch with a
//    single binomial draw. Orders of magnitude fewer statevector evolutions;
//    the engine-equivalence tests pin the distributional match.
//  * FragmentBackend      — the same binomial draw, with each term's P(−1)
//    computed fragment by fragment; only the split-skeleton cache can be
//    shared across backends.
//
// Backends are bound to one Qpd and must be callable concurrently from many
// threads (they are — SerialShotBackend is stateless, the branch caches are
// thread-safe).
#pragma once

#include <memory>
#include <string>

#include "qcut/common/rng.hpp"
#include "qcut/cut/fragment.hpp"
#include "qcut/exec/branch_cache.hpp"
#include "qcut/exec/shot_plan.hpp"
#include "qcut/qpd/qpd.hpp"

namespace qcut {

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual std::string name() const = 0;

  /// Runs `batch.shots` executions of term `batch.term`, drawing all
  /// randomness from `rng`; returns the count of −1 outcomes.
  virtual std::uint64_t run_batch(const TermBatch& batch, Rng& rng) const = 0;
};

/// Per-shot stochastic statevector simulation (legacy semantics).
class SerialShotBackend final : public ExecutionBackend {
 public:
  explicit SerialShotBackend(const Qpd& qpd);

  std::string name() const override { return "serial-shot"; }
  std::uint64_t run_batch(const TermBatch& batch, Rng& rng) const override;

 private:
  const Qpd* qpd_;
};

/// Branch-cached binomial sampling over the whole spliced circuit: the
/// default for unplanned runs. Planned runs execute FragmentBackend instead
/// (PlannedExecutor::routed_backend); this one remains their test oracle.
class BatchedBranchBackend final : public ExecutionBackend {
 public:
  explicit BatchedBranchBackend(const Qpd& qpd);
  /// Reuses precomputed per-term probabilities (e.g. across repetitions).
  BatchedBranchBackend(const Qpd& qpd, std::vector<Real> prob_one);

  std::string name() const override { return "batched-branch"; }
  std::uint64_t run_batch(const TermBatch& batch, Rng& rng) const override;

  const BranchCache& cache() const noexcept { return *cache_; }

 private:
  const Qpd* qpd_;
  std::shared_ptr<BranchCache> cache_;
};

/// Fragment-local branch-cached sampling: each term's exact −1-outcome
/// probability is computed by enumerating its *fragments* independently
/// (qcut/cut/fragment.hpp) and recombining through the cross-fragment
/// classical bits — the spliced state is never materialized, so memory is
/// bounded by the widest fragment instead of the total spliced width. Batches
/// then sample the same single binomial as BatchedBranchBackend, so the two
/// backends are identical in law: the exact per-term probabilities agree up
/// to float reassociation (the equivalence tests pin 1e-12).
class FragmentBackend final : public ExecutionBackend {
 public:
  /// `max_fragment_width` caps the widest fragment this backend will
  /// enumerate (0 defaults to the statevector engine's hard cap). When `pool`
  /// is non-null, each term's (fragment, read-assignment) work units are
  /// distributed across it *if* the caller is not already one of its workers
  /// (calls arriving from the engine's batch-parallel driver run inline —
  /// the engine already parallelizes across terms). Splitting reuses one
  /// SplitSkeletonCache across all terms: the 8^K gadget variants of a cut
  /// plan share their split structure, so per-term splitting is a cheap op
  /// replay; `skeletons` shares a caller-owned cache across requests (the
  /// service layer's process-lifetime one), nullptr gives a private one.
  /// Results are bit-identical for any pool (or none).
  explicit FragmentBackend(const Qpd& qpd, int max_fragment_width = 0,
                           ThreadPool* pool = nullptr,
                           std::shared_ptr<SplitSkeletonCache> skeletons = nullptr);

  std::string name() const override { return "fragment"; }
  std::uint64_t run_batch(const TermBatch& batch, Rng& rng) const override;

  /// Forces every term's fragment enumeration, distributing terms across the
  /// constructor's pool (the serial sweep when none was given). Always the
  /// same pool as the per-term work units — two different pools would evade
  /// the worker-reentrancy guard and oversubscribe.
  void prewarm() const;

  const BranchCache& cache() const noexcept { return *cache_; }

 private:
  const Qpd* qpd_;
  ThreadPool* pool_ = nullptr;
  std::shared_ptr<BranchCache> cache_;
};

enum class BackendKind {
  kSerialShot,
  kBatchedBranch,
  kFragment,
};

const char* to_string(BackendKind kind);

/// Factory bound to `qpd` (which must outlive the backend). `pool` is used
/// only by kFragment (for within-term work-unit distribution); the other
/// backends ignore it.
std::unique_ptr<ExecutionBackend> make_backend(BackendKind kind, const Qpd& qpd,
                                               ThreadPool* pool = nullptr);

/// As above, sharing a caller-owned skeleton cache with kFragment backends
/// (ignored by the other kinds; nullptr falls back to a private cache). The
/// service layer passes its process-lifetime cache here so split skeletons
/// survive across requests.
std::unique_ptr<ExecutionBackend> make_backend(BackendKind kind, const Qpd& qpd,
                                               ThreadPool* pool,
                                               std::shared_ptr<SplitSkeletonCache> skeletons);

}  // namespace qcut
