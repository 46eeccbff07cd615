// Execution backends: how a TermBatch turns into an outcome count.
//
// Every backend produces the number of −1 outcomes ("ones") among the batch's
// shots. The two agree in mean; in law only as far as Rng::binomial is exact
// (it is not at n·q ≥ 30: ROADMAP item 6):
//  * SerialShotBackend    — the reference semantics: every shot is a full
//    stochastic statevector simulation of the term circuit (what a quantum
//    device does). Kept for validation and as the honest-cost baseline; it
//    needs spliced term circuits.
//  * BatchedBranchBackend — the exact backend every estimate runs on unless
//    it asks for serial shots. prepare() computes every term's exact P(−1)
//    through its BranchCache, and each batch is then a single binomial draw.
//    The probabilities are evaluated fragment by fragment
//    (qcut/cut/fragment.hpp): each term's circuit splits into the connected
//    components of its qubit-interaction graph, each distinct fragment
//    variant is built from the cut layout and enumerated once, and the
//    fragments recombine through the cross-fragment classical bits. Memory is
//    bounded by the widest fragment, never by the spliced width; an uncut
//    term is one fragment. It also runs factored QPDs, whose terms carry no
//    circuit.
//
// Backends are bound to one Qpd and must be callable concurrently from many
// threads (they are — SerialShotBackend is stateless, the branch cache is
// thread-safe).
#pragma once

#include <memory>
#include <string>

#include "qcut/common/rng.hpp"
#include "qcut/exec/branch_cache.hpp"
#include "qcut/exec/shot_plan.hpp"
#include "qcut/qpd/qpd.hpp"

namespace qcut {

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual std::string name() const = 0;

  /// One-time work before any batch, such as exact probabilities; run_plan
  /// calls it first. Thread-safe, and a no-op once done. Does nothing by
  /// default (SerialShotBackend).
  virtual void prepare() const {}

  /// Runs `batch.shots` executions of term `batch.term`, drawing all
  /// randomness from `rng`; returns the count of −1 outcomes.
  virtual std::uint64_t run_batch(const TermBatch& batch, Rng& rng) const = 0;
};

/// Per-shot stochastic statevector simulation (legacy semantics). Throws
/// qcut::Error on a factored QPD: it simulates term circuits.
class SerialShotBackend final : public ExecutionBackend {
 public:
  explicit SerialShotBackend(const Qpd& qpd);

  std::string name() const override { return "serial-shot"; }
  std::uint64_t run_batch(const TermBatch& batch, Rng& rng) const override;

 private:
  const Qpd* qpd_;
};

/// Binomial sampling over fragment-local exact probabilities.
class BatchedBranchBackend final : public ExecutionBackend {
 public:
  /// prepare() (or the first batch) computes every term's P(−1), each
  /// fragment variant once, fanned out only when fanout_pays(work).
  explicit BatchedBranchBackend(const Qpd& qpd);
  /// Pre-seeded: reuses precomputed per-term probabilities (e.g. across
  /// repetitions); never enumerates.
  BatchedBranchBackend(const Qpd& qpd, std::vector<Real> prob_one);

  std::string name() const override { return "batched-branch"; }
  void prepare() const override { cache_.prepare(); }
  std::uint64_t run_batch(const TermBatch& batch, Rng& rng) const override;

  const BranchCache& cache() const noexcept { return cache_; }

 private:
  BranchCache cache_;
};

enum class BackendKind {
  kSerialShot,
  kBatchedBranch,
};

/// Factory bound to `qpd` (which must outlive the backend).
std::unique_ptr<ExecutionBackend> make_backend(BackendKind kind, const Qpd& qpd);

}  // namespace qcut
