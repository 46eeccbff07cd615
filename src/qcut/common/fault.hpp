// Deterministic fault injection for chaos testing the service pipeline.
//
// Six named sites mark the seams where distributed execution will fail in
// production (decode, plan, batch, fragment unit, cache insert, pool task).
// Arming is per-site via QCUT_FAULT at process start or arm_faults() at run
// time:
//
//   QCUT_FAULT=site:kind[:p][:seed][,site:kind...]
//
//   site  ∈ {wire.decode, svc.plan, exec.batch, fragment.unit,
//            cache.insert, pool.task}
//   kind  ∈ {throw, delay_ms=N}        (throw → qcut::Error{kInternal};
//                                       delay_ms → sleep N ms, default 10)
//   p     ∈ [0,1]                      fire probability (default 1)
//   seed  = u64                        decision-stream seed (default 1)
//
// Decisions are COUNTER-seeded, not clock- or thread-seeded: the n-th arrival
// at a site fires iff splitmix64(seed ⊕ site ⊕ n) maps below p. Re-arming
// resets the counters, so a failing run replays bit-identically from its
// (spec, seed) — the chaos harness prints both on failure.
//
// Unarmed cost is one relaxed atomic<bool> load and a predicted branch at
// each site (the same ≤2% discipline as QCUT_METRICS; sites sit at coarse
// boundaries only, never inside SIMD kernels). Injected throws land on the
// obs kFaultsInjected counter and surface as typed internal errors.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace qcut {
namespace fault {

enum class Site : int {
  kWireDecode = 0,  ///< wire.decode — estimate-request payload decode
  kSvcPlan,         ///< svc.plan — plan resolution in svc::estimate
  kExecBatch,       ///< exec.batch — engine per-batch execution
  kFragmentUnit,    ///< fragment.unit — per (fragment, read-assignment) unit
  kCacheInsert,     ///< cache.insert — every SingleFlightCache insert
  kPoolTask,        ///< pool.task — thread-pool task execution
  kCount
};

inline constexpr int kSiteCount = static_cast<int>(Site::kCount);

/// The spec-string spelling of a site ("wire.decode", ...).
const char* site_name(Site site) noexcept;

namespace detail {
// Exposed only so maybe_inject can inline its unarmed fast path.
extern std::atomic<bool> g_fault_armed;

/// Slow path: consumes one decision at `site` and fires (throw/delay) when
/// the site is armed and the counter-seeded draw lands below p.
void fire(Site site);
}  // namespace detail

/// The per-site hook. Unarmed → one relaxed load + predicted branch.
inline void maybe_inject(Site site) {
  if (detail::g_fault_armed.load(std::memory_order_relaxed)) {
    detail::fire(site);
  }
}

/// Parses and arms a QCUT_FAULT spec (replacing any previous arming and
/// resetting every site's decision counter). Throws qcut::Error
/// {kInvalidRequest} on a malformed spec. Empty spec → disarm_faults().
void arm_faults(const std::string& spec);

/// Disarms every site; maybe_inject returns to the one-load fast path.
void disarm_faults();

}  // namespace fault
}  // namespace qcut
