#include "qcut/sim/simd_dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "qcut/common/error.hpp"

namespace qcut {

namespace {

bool cpu_supports(SimdTier tier) {
#if defined(__x86_64__) || defined(__i386__)
  switch (tier) {
    case SimdTier::kScalar:
      return true;
    case SimdTier::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }
  return false;
#else
  return tier == SimdTier::kScalar;
#endif
}

const SimdKernels* compiled_table(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return simd_kernels_scalar();
    case SimdTier::kAvx2:
      return simd_kernels_avx2();
  }
  return nullptr;
}

SimdTier detect_tier() {
  // Environment override first: the CI forced-dispatch knob. An unknown or
  // unavailable value throws — a silently ignored QCUT_SIMD would let a
  // forced-AVX2 CI job quietly measure the wrong tier.
  if (const char* env = std::getenv("QCUT_SIMD")) {
    if (std::strcmp(env, "scalar") == 0 || std::strcmp(env, "avx2") == 0) {
      const SimdTier t = std::strcmp(env, "scalar") == 0 ? SimdTier::kScalar : SimdTier::kAvx2;
      QCUT_CHECK(simd_tier_available(t),
                 std::string("QCUT_SIMD requests tier '") + env +
                     "' which this build/CPU does not support");
      return t;
    }
    throw Error(std::string("QCUT_SIMD: unknown tier '") + env +
                "' (expected scalar|avx2)");
  }
  return simd_tier_available(SimdTier::kAvx2) ? SimdTier::kAvx2 : SimdTier::kScalar;
}

struct Dispatch {
  std::atomic<const SimdKernels*> table;
  std::atomic<int> tier;

  Dispatch() {
    const SimdTier t = detect_tier();
    table.store(compiled_table(t), std::memory_order_relaxed);
    tier.store(static_cast<int>(t), std::memory_order_relaxed);
  }
};

Dispatch& dispatch() {
  static Dispatch d;
  return d;
}

}  // namespace

const char* simd_tier_name(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool simd_tier_available(SimdTier tier) {
  return compiled_table(tier) != nullptr && cpu_supports(tier);
}

SimdTier active_simd_tier() {
  return static_cast<SimdTier>(dispatch().tier.load(std::memory_order_acquire));
}

const SimdKernels& active_kernels() {
  return *dispatch().table.load(std::memory_order_acquire);
}

void force_simd_tier(SimdTier tier) {
  QCUT_CHECK(simd_tier_available(tier),
             std::string("force_simd_tier: tier '") + simd_tier_name(tier) +
                 "' is not available on this build/CPU");
  Dispatch& d = dispatch();
  d.tier.store(static_cast<int>(tier), std::memory_order_release);
  d.table.store(compiled_table(tier), std::memory_order_release);
}

}  // namespace qcut
