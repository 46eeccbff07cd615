#include "qcut/exec/backend.hpp"

#include <string>

#include "qcut/common/error.hpp"
#include "qcut/sim/executor.hpp"

namespace qcut {

SerialShotBackend::SerialShotBackend(const Qpd& qpd) : qpd_(&qpd) {
  QCUT_CHECK(!qpd.empty(), "SerialShotBackend: empty QPD");
  QCUT_CHECK(qpd.has_term_circuits(),
             "SerialShotBackend: the QPD is factored (its terms carry no circuit); "
             "build it spliced to simulate shots");
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

BatchedBranchBackend::BatchedBranchBackend(const Qpd& qpd) : cache_(qpd) {}

BatchedBranchBackend::BatchedBranchBackend(const Qpd& qpd, std::vector<Real> prob_one)
    : cache_(qpd, std::move(prob_one)) {}

std::uint64_t BatchedBranchBackend::run_batch(const TermBatch& batch, Rng& rng) const {
  return rng.binomial(batch.shots, cache_.prob_one(batch.term));
}

std::unique_ptr<ExecutionBackend> make_backend(BackendKind kind, const Qpd& qpd) {
  switch (kind) {
    case BackendKind::kSerialShot:
      return std::make_unique<SerialShotBackend>(qpd);
    case BackendKind::kBatchedBranch:
      return std::make_unique<BatchedBranchBackend>(qpd);
  }
  throw Error("make_backend: unknown backend kind");
}

}  // namespace qcut
