#include "qcut/common/fault.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "qcut/common/error.hpp"
#include "qcut/common/rng.hpp"
#include "qcut/obs/metrics.hpp"

namespace qcut {
namespace fault {

namespace {

enum class Kind : int { kNone = 0, kThrow, kDelay };

/// Per-site arming state. All fields are atomics written by arm/disarm and
/// read by fire(); relaxed ordering suffices because g_fault_armed is the
/// publication gate and chaos tests (de)arm between request waves anyway.
struct SiteState {
  std::atomic<int> kind{static_cast<int>(Kind::kNone)};
  std::atomic<std::uint64_t> threshold{0};  ///< fire iff draw <= threshold
  std::atomic<std::uint64_t> seed{0};
  std::atomic<std::uint64_t> delay_ms{0};
  std::atomic<std::uint64_t> counter{0};  ///< decisions consumed at this site
};

SiteState g_sites[kSiteCount];

constexpr const char* kSiteNames[kSiteCount] = {
    "wire.decode", "svc.plan", "exec.batch", "fragment.unit", "cache.insert", "pool.task",
};

int site_from_name(const std::string& name) {
  for (int i = 0; i < kSiteCount; ++i) {
    if (name == kSiteNames[i]) {
      return i;
    }
  }
  return -1;
}

/// One clause: site:kind[:p][:seed]. Throws kInvalidRequest on bad syntax.
void arm_clause(const std::string& clause) {
  std::string parts[4];
  int n_parts = 0;
  std::size_t start = 0;
  while (n_parts < 4) {
    const std::size_t colon = clause.find(':', start);
    if (colon == std::string::npos) {
      parts[n_parts++] = clause.substr(start);
      break;
    }
    parts[n_parts++] = clause.substr(start, colon - start);
    start = colon + 1;
  }
  QCUT_CHECK(n_parts >= 2, "QCUT_FAULT: clause '" + clause + "' needs site:kind");

  const int site = site_from_name(parts[0]);
  if (site < 0) {
    throw Error("QCUT_FAULT: unknown site '" + parts[0] +
                    "' (wire.decode | svc.plan | exec.batch | fragment.unit | "
                    "cache.insert | pool.task)",
                ErrorCode::kInvalidRequest);
  }

  Kind kind = Kind::kNone;
  std::uint64_t delay_ms = 10;
  if (parts[1] == "throw") {
    kind = Kind::kThrow;
  } else if (parts[1].rfind("delay_ms", 0) == 0) {
    kind = Kind::kDelay;
    const std::size_t eq = parts[1].find('=');
    if (eq != std::string::npos) {
      delay_ms = std::strtoull(parts[1].c_str() + eq + 1, nullptr, 10);
    }
  } else {
    throw Error("QCUT_FAULT: unknown kind '" + parts[1] + "' (throw | delay_ms[=N])",
                ErrorCode::kInvalidRequest);
  }

  double p = 1.0;
  if (n_parts >= 3 && !parts[2].empty()) {
    p = std::strtod(parts[2].c_str(), nullptr);
    QCUT_CHECK(p >= 0.0 && p <= 1.0, "QCUT_FAULT: probability must be in [0,1]");
  }
  std::uint64_t seed = 1;
  if (n_parts >= 4 && !parts[3].empty()) {
    seed = std::strtoull(parts[3].c_str(), nullptr, 10);
  }

  SiteState& s = g_sites[site];
  s.threshold.store(p >= 1.0 ? ~0ULL
                             : static_cast<std::uint64_t>(p * 18446744073709551616.0),
                    std::memory_order_relaxed);
  s.seed.store(seed, std::memory_order_relaxed);
  s.delay_ms.store(delay_ms, std::memory_order_relaxed);
  s.counter.store(0, std::memory_order_relaxed);
  s.kind.store(static_cast<int>(kind), std::memory_order_relaxed);
}

/// Reads QCUT_FAULT once at process start (EnvInit pattern: g_fault_armed is
/// constant-initialized false, so hooks reached before this run are no-ops).
struct EnvInit {
  EnvInit() {
    const char* env = std::getenv("QCUT_FAULT");
    if (env != nullptr && env[0] != '\0') {
      try {
        arm_faults(env);
      } catch (const std::exception& e) {
        // A bad spec at static-init time must not terminate the process.
        std::fprintf(stderr, "qcut: ignoring malformed QCUT_FAULT: %s\n", e.what());
        disarm_faults();
      }
    }
  }
};
const EnvInit g_env_init;

}  // namespace

namespace detail {

std::atomic<bool> g_fault_armed{false};

void fire(Site site) {
  SiteState& s = g_sites[static_cast<int>(site)];
  const Kind kind = static_cast<Kind>(s.kind.load(std::memory_order_relaxed));
  if (kind == Kind::kNone) {
    return;  // a different site is armed
  }
  // Counter-seeded decision: the n-th arrival fires (or not) identically on
  // every run with the same spec — failures always reproduce.
  const std::uint64_t n = s.counter.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t state = s.seed.load(std::memory_order_relaxed) ^
                        (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(site) + 1)) ^
                        (n * 0xbf58476d1ce4e5b9ULL);
  const std::uint64_t draw = splitmix64_next(state);
  if (draw > s.threshold.load(std::memory_order_relaxed)) {
    return;
  }
  obs::count(obs::Counter::kFaultsInjected);
  if (kind == Kind::kDelay) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(s.delay_ms.load(std::memory_order_relaxed)));
    return;
  }
  throw Error("fault injected at " + std::string(site_name(site)) + " (hit #" +
                  std::to_string(n) + ", seed " +
                  std::to_string(s.seed.load(std::memory_order_relaxed)) + ")",
              ErrorCode::kInternal);
}

}  // namespace detail

const char* site_name(Site site) noexcept {
  const int i = static_cast<int>(site);
  return (i >= 0 && i < kSiteCount) ? kSiteNames[i] : "unknown";
}

void arm_faults(const std::string& spec) {
  disarm_faults();
  if (spec.empty()) {
    return;
  }
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string clause =
        spec.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!clause.empty()) {
      arm_clause(clause);
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  detail::g_fault_armed.store(true, std::memory_order_release);
}

void disarm_faults() {
  detail::g_fault_armed.store(false, std::memory_order_release);
  for (auto& s : g_sites) {
    s.kind.store(static_cast<int>(Kind::kNone), std::memory_order_relaxed);
    s.counter.store(0, std::memory_order_relaxed);
  }
}

}  // namespace fault
}  // namespace qcut
