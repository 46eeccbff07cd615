#include "qcut/exec/backend.hpp"

#include <string>

#include "qcut/common/error.hpp"
#include "qcut/cut/fragment.hpp"
#include "qcut/obs/trace.hpp"
#include "qcut/sim/executor.hpp"
#include "qcut/sim/statevector.hpp"

namespace qcut {

SerialShotBackend::SerialShotBackend(const Qpd& qpd) : qpd_(&qpd) {
  QCUT_CHECK(!qpd.empty(), "SerialShotBackend: empty QPD");
}

std::uint64_t SerialShotBackend::run_batch(const TermBatch& batch, Rng& rng) const {
  QCUT_CHECK(batch.term < qpd_->size(), "SerialShotBackend: term out of range");
  const QpdTerm& term = qpd_->terms()[batch.term];
  std::uint64_t ones = 0;
  for (std::uint64_t s = 0; s < batch.shots; ++s) {
    const ShotOutcome out = run_shot(term.circuit, rng);
    int parity = 0;
    for (int cb : term.estimate_cbits) {
      parity ^= out.cbits[static_cast<std::size_t>(cb)];
    }
    ones += static_cast<std::uint64_t>(parity);
  }
  return ones;
}

BatchedBranchBackend::BatchedBranchBackend(const Qpd& qpd,
                                           std::shared_ptr<SplitSkeletonCache> skeletons)
    : qpd_(&qpd) {
  const auto skels =
      skeletons != nullptr ? std::move(skeletons) : std::make_shared<SplitSkeletonCache>();
  cache_ = std::make_shared<BranchCache>(qpd, [skels](const QpdTerm& term) {
    FragmentSplit split = [&] {
      obs::TraceSpan span("fragment.split");
      return split_term(term, *cached_skeleton(*skels, term.circuit));
    }();
    QCUT_CHECK(split.max_width <= Statevector::kMaxQubits,
               "BatchedBranchBackend: a term fragment exceeds the statevector cap (" +
                   std::to_string(split.max_width) + " > " +
                   std::to_string(Statevector::kMaxQubits) +
                   " qubits) — add cuts, and note that entangled-resource cuts "
                   "(nme/distill) merge both sides into one fragment: wide runs "
                   "need entanglement-free plans (pair_budget = 0)");
    // Gate fusion before evaluation, only on the fragments that pass
    // sim/fusion.hpp's width rule. The prefix/suffix boundary is preserved,
    // so prefix caching is unaffected.
    for (TermFragment& tf : split.fragments) {
      if (fusion_pays(tf.circuit.n_qubits())) {
        fuse_fragment(tf);
      }
    }
    return fragment_term_prob_one(split);
  });
}

BatchedBranchBackend::BatchedBranchBackend(const Qpd& qpd, std::vector<Real> prob_one)
    : qpd_(&qpd), cache_(std::make_shared<BranchCache>(qpd, std::move(prob_one))) {}

std::uint64_t BatchedBranchBackend::run_batch(const TermBatch& batch, Rng& rng) const {
  QCUT_CHECK(batch.term < qpd_->size(), "BatchedBranchBackend: term out of range");
  return rng.binomial(batch.shots, cache_->prob_one(batch.term));
}

std::unique_ptr<ExecutionBackend> make_backend(BackendKind kind, const Qpd& qpd,
                                               std::shared_ptr<SplitSkeletonCache> skeletons) {
  switch (kind) {
    case BackendKind::kSerialShot:
      return std::make_unique<SerialShotBackend>(qpd);
    case BackendKind::kBatchedBranch:
      return std::make_unique<BatchedBranchBackend>(qpd, std::move(skeletons));
  }
  throw Error("make_backend: unknown backend kind");
}

}  // namespace qcut
