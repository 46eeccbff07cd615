// Cross-request caches for the service layer (ROADMAP item 1).
//
// The daemon answers many estimation requests per process, and most fleets
// send the same few circuits over and over (parameter sweeps, retries,
// dashboards re-polling). Three artifacts are worth keeping warm across
// requests:
//
//  * the parsed circuit — a memo from a QASM request's exact bytes to the
//    parsed, measurement-stripped Circuit and its canonical hash, so a
//    repeated request skips the parse and the hash. Only parses whose
//    request passed validation and resolved a plan are stored; IR requests
//    bypass it;
//  * the CutPlan — the planner's subset search over cut candidates, keyed by
//    (canonical circuit hash, planner config);
//  * the eval entry — the QPD (factored for the exact backend, spliced for
//    serial shots), its warm ExecutionBackend (holding the exact per-term
//    P(−1) probabilities once computed) and the uncut exact reference ⟨O⟩,
//    keyed by (plan key, observable, backend kind). A cacheless
//    svc::estimate builds the same entry privately, so both paths run one
//    piece of code.
//
// Reuse is always bit-identical: parses, plans and references are
// deterministic functions of their key, and a warm backend holds exact
// probabilities (or replays exact per-shot simulation), so a cache hit
// changes wall-clock time and nothing else — pinned by test_service.cpp.
//
// Keys are strings: the QASM text itself for the circuit memo, else a
// canonical FNV-1a circuit hash plus an exact textual serialization of the
// relevant config (doubles by bit pattern, so two configs collide only when
// they are the same config). Each is a single-flight LRU SingleFlightCache:
// concurrent cold requests for one plan or eval key share one build. Plan and
// eval hit/miss traffic lands on the obs counters (kPlanCacheHit/Miss,
// kEvalCacheHit/Miss) at the call sites.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "qcut/common/single_flight_cache.hpp"
#include "qcut/exec/backend.hpp"
#include "qcut/plan/cut_planner.hpp"
#include "qcut/plan/planned_executor.hpp"
#include "qcut/sim/circuit.hpp"
#include "qcut/sim/observable.hpp"

namespace qcut {
namespace svc {

/// Canonical 64-bit FNV-1a hash of a circuit's structure: register sizes and
/// every operation's kind, qubits, cbit, matrix / init-state entry bit
/// patterns. Labels are excluded — they are presentation, not semantics — so
/// a circuit imported from QASM hashes equal to the same circuit built by
/// hand. Two requests with equal hashes are treated as the same circuit
/// (a 64-bit collision is negligible next to sampling error).
std::uint64_t circuit_hash(const Circuit& circ);

/// Exact textual key of the planner configuration (scalars by bit pattern,
/// device model included): equal keys ⇔ the planner search is the same.
std::string planner_config_key(const PlannerConfig& cfg);

/// Plan-cache key: circuit identity + planner configuration.
std::string plan_key(std::uint64_t circuit_hash, const PlannerConfig& cfg);

/// Eval-cache key: plan identity + observable + backend kind. Shots and seed
/// are deliberately absent — a warm backend is exact, so it serves any
/// budget and any seed bit-identically.
std::string eval_key(const std::string& plan_key, const Observable& observable,
                     BackendKind kind);

/// A request circuit past the front door's parse: trailing measurements
/// stripped, with its canonical circuit_hash. The circuit-memo value.
struct ParsedCircuit {
  std::shared_ptr<const Circuit> circuit;
  std::uint64_t hash = 0;
};

/// One evaluation context: the executor (plan protocols instantiated), the
/// QPD, an ExecutionBackend bound to it, and the uncut exact reference.
/// svc::estimate runs every request through one: a cached entry's backend
/// probability cache (BranchCache) fills on first use and serves every later
/// request with the same key, and a cacheless request builds a private
/// entry. All members are immutable or internally synchronized after
/// build(), so one entry serves concurrent requests.
struct EvalEntry {
  PlannedExecutor executor;
  Qpd qpd;                ///< executor.qpd_for(observable, kind); backend points at it
  std::optional<Real> exact;  ///< executor.exact_reference(observable)
  std::unique_ptr<ExecutionBackend> backend;  ///< of the kind build() was given

  EvalEntry(PlannedExecutor ex, Qpd q, std::optional<Real> e)
      : executor(std::move(ex)), qpd(std::move(q)), exact(e) {}

  /// Builds a ready entry: the QPD, the exact reference (under
  /// exact_reference's width rule), then a `kind` backend against the
  /// entry's own (heap-stable) QPD.
  static std::shared_ptr<EvalEntry> build(PlannedExecutor executor, const Observable& observable,
                                          BackendKind kind);
};

/// Entry caps of the service caches; 0 = unbounded.
struct ServiceCachesConfig {
  std::size_t plan_capacity = 64;
  std::size_t eval_capacity = 32;
};

/// The process-lifetime cache bundle one service instance owns: the daemon
/// holds one, and in-process callers that opt into caching pass their own to
/// svc::estimate.
class ServiceCaches {
 public:
  explicit ServiceCaches(ServiceCachesConfig cfg = {})
      : circuits(cfg.plan_capacity),
        plans(cfg.plan_capacity),
        evals(cfg.eval_capacity) {}

  /// QASM text → parsed circuit. Sized like `plans`: a memo entry only pays
  /// while the plan it leads to is resident, so a parse is inserted only
  /// after its request passed validation and resolved a plan.
  SingleFlightCache<const ParsedCircuit> circuits;
  SingleFlightCache<const CutPlan> plans;
  SingleFlightCache<EvalEntry> evals;
};

}  // namespace svc
}  // namespace qcut
