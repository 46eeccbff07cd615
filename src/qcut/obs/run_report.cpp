#include "qcut/obs/run_report.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <sstream>
#include <thread>

#include "qcut/sim/simd_dispatch.hpp"
#include "qcut_git_sha.hpp"

namespace qcut {
namespace obs {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string utc_timestamp() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm_utc{};
#if defined(_WIN32)
  gmtime_s(&tm_utc, &now);
#else
  gmtime_r(&now, &tm_utc);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

std::string fmt_real(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Ratio with a well-defined 0 when the denominator is empty.
double safe_ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct JsonWriter {
  std::ostringstream os;
  std::string pad;    ///< current indentation
  bool first = true;  ///< no comma before the next member

  explicit JsonWriter(int indent) : pad(static_cast<std::size_t>(indent), ' ') {}

  void open(const char* key = nullptr) {
    sep();
    os << pad;
    if (key != nullptr) os << '"' << key << "\": ";
    os << "{\n";
    pad += "  ";
    first = true;
  }

  void close() {
    pad.resize(pad.size() - 2);
    os << '\n' << pad << '}';
    first = false;
  }

  void field(const char* key, const std::string& value) {
    sep();
    os << pad << '"' << key << "\": \"" << json_escape(value) << '"';
  }

  void field(const char* key, std::uint64_t value) {
    sep();
    os << pad << '"' << key << "\": " << value;
  }

  void field(const char* key, double value) {
    sep();
    os << pad << '"' << key << "\": " << fmt_real(value);
  }

  void field(const char* key, bool value) {
    sep();
    os << pad << '"' << key << "\": " << (value ? "true" : "false");
  }

  void sep() {
    if (!first) os << ",\n";
    first = false;
  }
};

}  // namespace

Provenance provenance() {
  // Build identity and core count never change while the process runs, and
  // hardware_concurrency() is a sysfs read: compute them once. The SIMD tier
  // (force_simd_tier can switch it) and the timestamp are read per call.
  static const Provenance constant = [] {
    Provenance p;
    p.git_sha = QCUT_GIT_SHA;
#if defined(__VERSION__)
    p.compiler = __VERSION__;
#else
    p.compiler = "unknown";
#endif
#ifdef NDEBUG
    p.build_type = "release";
#else
    p.build_type = "debug";
#endif
    p.hardware_threads = std::thread::hardware_concurrency();
    return p;
  }();
  Provenance p = constant;
  p.simd_tier = simd_tier_name(active_simd_tier());
  p.timestamp_utc = utc_timestamp();
  return p;
}

std::string provenance_json(int indent) {
  const Provenance p = provenance();
  JsonWriter w(indent);
  // The opening brace sits at the caller's cursor, not at `indent`.
  w.open();
  w.os.str("");
  w.os << "{\n";
  w.field("git_sha", p.git_sha);
  w.field("compiler", p.compiler);
  w.field("build_type", p.build_type);
  w.field("simd_tier", p.simd_tier);
  w.field("hardware_threads", static_cast<std::uint64_t>(p.hardware_threads));
  w.field("timestamp_utc", p.timestamp_utc);
  w.close();
  return w.os.str();
}

std::string RunReport::to_json(int indent) const {
  const MetricsSnapshot& c = counters;
  const std::uint64_t bc_hit = c[Counter::kBranchCacheHit];
  const std::uint64_t bc_miss = c[Counter::kBranchCacheMiss];
  const std::uint64_t sk_hit = c[Counter::kSkeletonCacheHit];
  const std::uint64_t sk_miss = c[Counter::kSkeletonCacheMiss];
  const std::uint64_t ops_before = c[Counter::kFusionOpsBefore];
  const std::uint64_t ops_after = c[Counter::kFusionOpsAfter];
  const double wall_s = static_cast<double>(wall_time_ns) * 1e-9;

  JsonWriter w(indent);
  w.open();
  w.os.str("");
  w.os << "{\n";

  {
    // provenance_json re-indents itself; splice it in as a raw member.
    w.sep();
    w.os << w.pad << "\"provenance\": "
         << provenance_json(static_cast<int>(w.pad.size()));
  }

  w.open("config");
  if (!request_id.empty()) {
    w.field("request_id", request_id);
  }
  w.field("backend", backend);
  w.field("simd_tier", simd_tier);
  w.field("pool_threads", static_cast<std::uint64_t>(pool_threads));
  w.field("metrics_enabled", metrics_enabled);
  w.field("plan_cuts", static_cast<std::uint64_t>(plan_cuts));
  w.field("max_fragment_width", static_cast<std::uint64_t>(max_fragment_width));
  w.close();

  w.open("shots");
  w.field("kappa", static_cast<double>(kappa));
  w.field("sampled", shots_sampled);
  w.field("budget_kappa2_over_eps2", static_cast<double>(shots_budget));
  w.field("batches", c[Counter::kBatchesRun]);
  w.close();

  w.open("cache");
  w.field("branch_hit", bc_hit);
  w.field("branch_miss", bc_miss);
  w.field("branch_hit_rate",
          safe_ratio(static_cast<double>(bc_hit), static_cast<double>(bc_hit + bc_miss)));
  w.field("skeleton_hit", sk_hit);
  w.field("skeleton_miss", sk_miss);
  w.field("skeleton_hit_rate",
          safe_ratio(static_cast<double>(sk_hit), static_cast<double>(sk_hit + sk_miss)));
  // Cross-request caches (service layer); identically zero for in-process
  // runs that never touch src/qcut/svc/.
  w.field("plan_hit", c[Counter::kPlanCacheHit]);
  w.field("plan_miss", c[Counter::kPlanCacheMiss]);
  w.field("eval_hit", c[Counter::kEvalCacheHit]);
  w.field("eval_miss", c[Counter::kEvalCacheMiss]);
  w.close();

  w.open("fusion");
  w.field("ops_before", ops_before);
  w.field("ops_after", ops_after);
  w.field("reduction",
          safe_ratio(static_cast<double>(ops_before - (ops_after <= ops_before ? ops_after : ops_before)),
                     static_cast<double>(ops_before)));
  w.field("fused_1q", c[Counter::kFusionFused1q]);
  w.field("merged_monomial", c[Counter::kFusionMergedMonomial]);
  w.field("dropped_identity", c[Counter::kFusionDroppedIdentity]);
  w.close();

  w.open("kernels");
  w.field("dense_1q", c[Counter::kDispatchDense1q]);
  w.field("dense_2q", c[Counter::kDispatchDense2q]);
  w.field("generic", c[Counter::kDispatchGeneric]);
  w.field("diagonal", c[Counter::kDispatchDiagonal]);
  w.field("sparse_phase", c[Counter::kDispatchSparsePhase]);
  w.field("permutation", c[Counter::kDispatchPermutation]);
  w.close();

  w.open("pool");
  w.field("tasks", c[Counter::kPoolTasks]);
  w.field("queue_wait_ns", c[Counter::kPoolQueueWaitNanos]);
  w.field("busy_ns", c[Counter::kPoolBusyNanos]);
  // Fraction of worker-seconds spent running tasks during this run's wall
  // time; >1 cannot happen, ~0 means the run never touched the pool.
  w.field("utilization",
          safe_ratio(static_cast<double>(c[Counter::kPoolBusyNanos]),
                     wall_s > 0.0 ? static_cast<double>(wall_time_ns) *
                                        static_cast<double>(pool_threads)
                                  : 0.0));
  w.close();

  w.open("branches");
  w.field("enumerated", c[Counter::kBranchesEnumerated]);
  w.field("pruned", c[Counter::kBranchesPruned]);
  w.close();

  w.open("fragment");
  w.field("units", c[Counter::kFragmentUnits]);
  w.field("prefix_runs", c[Counter::kFragmentPrefixRuns]);
  w.close();

  w.field("wall_time_ns", wall_time_ns);

  {
    w.sep();
    w.os << w.pad << "\"counters\": "
         << metrics_json(counters, static_cast<int>(w.pad.size()));
  }

  w.close();
  return w.os.str();
}

}  // namespace obs
}  // namespace qcut
