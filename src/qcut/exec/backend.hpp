// Execution backends: how a TermBatch turns into an outcome count.
//
// Every backend produces the number of −1 outcomes ("ones") among the batch's
// shots. The two are interchangeable in law:
//  * SerialShotBackend    — the reference semantics: every shot is a full
//    stochastic statevector simulation of the term circuit (what a quantum
//    device does). Kept for validation and as the honest-cost baseline.
//  * BatchedBranchBackend — the exact backend every estimate runs on unless
//    it asks for serial shots. It computes each term's exact P(−1) once
//    (through its BranchCache) and services a whole batch with a single
//    binomial draw. The probability is evaluated fragment by fragment
//    (qcut/cut/fragment.hpp): the term circuit splits into the connected
//    components of its qubit-interaction graph, each fragment's branches are
//    enumerated on their own, and the fragments recombine through the
//    cross-fragment classical bits. Memory is bounded by the widest fragment,
//    never by the spliced width; an uncut term is one fragment.
//
// Backends are bound to one Qpd and must be callable concurrently from many
// threads (they are — SerialShotBackend is stateless, the branch cache is
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

/// Branch-cached binomial sampling over fragment-local exact probabilities.
class BatchedBranchBackend final : public ExecutionBackend {
 public:
  /// Lazy: each term's P(−1) is computed on its first batch. Per term, the
  /// circuit is split through one SplitSkeletonCache shared by all terms
  /// (the 8^K gadget variants of a cut plan share their split structure, so
  /// per-term splitting is a cheap op replay), checked against the
  /// statevector cap, fused on the fragments that pass sim/fusion.hpp's
  /// width rule, and evaluated by fragment_term_prob_one. `skeletons` shares
  /// a caller-owned cache across requests (the service layer's
  /// process-lifetime one); nullptr gives a private one. When `pool` is
  /// non-null, each term's (fragment, read-assignment) work units spread
  /// across it *if* the caller is not already one of its workers (calls from
  /// the engine's batch-parallel driver run inline — the engine already
  /// parallelizes across terms). Results are bit-identical for any pool (or
  /// none).
  explicit BatchedBranchBackend(const Qpd& qpd, ThreadPool* pool = nullptr,
                                std::shared_ptr<SplitSkeletonCache> skeletons = nullptr);
  /// Pre-seeded: reuses precomputed per-term probabilities (e.g. across
  /// repetitions); never enumerates.
  BatchedBranchBackend(const Qpd& qpd, std::vector<Real> prob_one);

  std::string name() const override { return "batched-branch"; }
  std::uint64_t run_batch(const TermBatch& batch, Rng& rng) const override;

  /// Forces every term's probability, distributing terms across the
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
};

const char* to_string(BackendKind kind);

/// Factory bound to `qpd` (which must outlive the backend). kBatchedBranch
/// distributes within-term work units over `pool` (nullptr → the global
/// pool) and splits through `skeletons` (nullptr → a private cache; the
/// service layer passes its process-lifetime one so split skeletons survive
/// across requests). kSerialShot ignores both.
std::unique_ptr<ExecutionBackend> make_backend(BackendKind kind, const Qpd& qpd,
                                               ThreadPool* pool = nullptr,
                                               std::shared_ptr<SplitSkeletonCache> skeletons =
                                                   nullptr);

}  // namespace qcut
