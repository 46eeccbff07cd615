// Answer pins: the estimates of the end-to-end benchmark's request classes,
// held bit for bit against committed digests. The other bit-identity tests
// compare two runs of one build (pool sizes, cold against warm, daemon
// against in process), so a change that moves every run the same way passes
// them; this one compares against values recorded from an earlier tree.
//
// Per request, the digested text holds every term's exact P(-1) and the
// answer (estimate, exact value, shots, kappa, cut count), all as %a. The
// answers are rerun cacheless, through one ServiceCaches (cold, then warm),
// through the benchmark's staged replay (import, plan, splice, exact
// reference, then run_qpd_estimate on a fresh backend) and through an
// in-process QcutServer over loopback (cold, then warm), at pools {1, 2, 8},
// with metrics off and on; every run must give the recorded text.
//
// A second test pins the paper's Fig. 6 sweep (run_fig6 at 25 states, the
// default grid, overlaps and seed): every row's mean error and its standard
// error, at pools {1, 2, 8}.
//
// The SIMD tiers are not bit-identical to each other, a build whose
// baseline targets FMA (-march=x86-64-v3) contracts multiply-adds outside
// the kernels too, and compilers differ in where they contract by default
// (gcc fast, clang on), so there is one digest per (tier, FMA baseline,
// compiler). A flavor with no recorded digest still checks that every run
// gives the same text, then skips and prints its digest. A change that
// moves answers on purpose re-records them: run this test, take the digest
// it prints, and say why in CHANGES.md.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "pool_scope.hpp"
#include "qcut/common/threadpool.hpp"
#include "qcut/core/experiment.hpp"
#include "qcut/cut/circuit_cutter.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/plan/planned_executor.hpp"
#include "qcut/qpd/estimator.hpp"
#include "qcut/sim/qasm_import.hpp"
#include "qcut/sim/simd_dispatch.hpp"
#include "qcut/sim/statevector.hpp"
#include "qcut/svc/api.hpp"
#include "qcut/svc/cache.hpp"
#include "qcut/svc/server.hpp"
#include "test_helpers.hpp"

namespace qcut {
namespace {

using testing::BenchShape;

struct PinClass {
  const char* name;
  BenchShape shape;
  int n_qubits;
  int cap;
  int pair_budget;
  Real overlap;
};

// qbench's request classes, plus the paper's NME plan (hwe-8, cap 6, two
// pairs at overlap 0.9).
constexpr PinClass kClasses[] = {
    {"ghz30_cap16", BenchShape::kGhz30, 30, 16, 0, 0.5},
    {"brick30_cap16", BenchShape::kBrick30, 30, 16, 0, 0.5},
    {"ghz8_cap3", BenchShape::kGhz8, 8, 3, 0, 0.5},
    {"hwe8_cap4", BenchShape::kHwe8, 8, 4, 0, 0.5},
    {"hwe8_cap5", BenchShape::kHwe8, 8, 5, 0, 0.5},
    {"hwe8_cap6_nme", BenchShape::kHwe8, 8, 6, 2, 0.9},
};
constexpr std::uint64_t kSeeds[] = {3102, 3103};
constexpr std::uint64_t kShots = 100000;

struct Pin {
  const char* flavor;
  std::uint64_t digest;
};

// Recorded with gcc from the tree before amplitude buffers were recycled.
constexpr Pin kPins[] = {
    {"scalar", 0xc8f1b9530c28ccadull},
    {"avx2", 0xa2b6196376b171c5ull},
    {"scalar+fma", 0x384a32e8ceea62d3ull},
    {"avx2+fma", 0x4ad72c180a249dd7ull},
};

// Recorded with gcc from the tree where run_fig6 first ran on run_plan.
constexpr Pin kFig6Pins[] = {
    {"scalar", 0x03b6696a2dbd3be2ull},
    {"avx2", 0x03b6696a2dbd3be2ull},
    {"scalar+fma", 0xd6eccd8636ef3195ull},
    {"avx2+fma", 0x5c92eeb4a6982b36ull},
};

std::string flavor() {
  std::string f = simd_tier_name(active_simd_tier());
#ifdef __FMA__
  f += "+fma";
#endif
#ifdef __clang__
  f += "+clang";
#endif
  return f;
}

/// Holds every run's digested text against the flavor's entry in `pins`.
/// With no recorded digest the first run's stands in for it; finish() then
/// skips and prints the digest to record.
class DigestCheck {
 public:
  template <std::size_t N>
  explicit DigestCheck(const Pin (&pins)[N]) : flavor_(flavor()) {
    for (const Pin& p : pins) {
      if (flavor_ == p.flavor) {
        pinned_ = true;
        have_want_ = true;
        want_ = p.digest;
      }
    }
  }

  void check(const std::string& text, const std::string& how) {
    const std::uint64_t got = testing::fnv64(text);
    if (!have_want_) {
      want_ = got;
      have_want_ = true;
    }
    EXPECT_EQ(got, want_) << flavor_ << ", " << how << ": digest " << format(got)
                          << (printed_ ? std::string() : "\n" + text);
    printed_ = printed_ || got != want_;
  }

  void finish() const {
    if (!pinned_) {
      GTEST_SKIP() << "no digest recorded for " << flavor_ << "; every run gave "
                   << format(want_);
    }
  }

 private:
  static std::string format(std::uint64_t digest) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ull", digest);
    return buf;
  }

  std::string flavor_;
  bool pinned_ = false;
  bool have_want_ = false;
  std::uint64_t want_ = 0;
  bool printed_ = false;
};

std::string hex(Real x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

svc::EstimateRequest make_request(const PinClass& c, std::uint64_t seed) {
  svc::EstimateRequest req;
  req.circuit_qasm = testing::bench_shape_qasm(c.shape);
  req.observable = Observable::parse(std::string(static_cast<std::size_t>(c.n_qubits), 'Z'));
  req.planner.max_fragment_width = c.cap;
  req.planner.pair_budget = c.pair_budget;
  req.planner.resource_overlap = c.overlap;
  req.run_cfg.shots = kShots;
  req.run_cfg.seed = seed;
  return req;
}

/// Every term's exact P(-1) per class, from the plan a cacheless request
/// resolves.
std::string term_prob_lines() {
  std::string text;
  for (const PinClass& c : kClasses) {
    const svc::EstimateRequest req = make_request(c, kSeeds[0]);
    const svc::EstimateResult res = svc::estimate(req);
    const PlannedExecutor ex(strip_trailing_measurements(import_qasm(req.circuit_qasm)),
                             *res.plan);
    text += std::string(c.name) + " P(-1):";
    for (const Real p : exact_term_prob_one(ex.build_qpd(req.observable))) {
      text += " " + hex(p);
    }
    text += "\n";
  }
  return text;
}

std::string answer_line(const PinClass& c, std::uint64_t seed, Real estimate, bool has_exact,
                        Real exact, std::uint64_t shots, Real kappa, std::size_t cuts) {
  return std::string(c.name) + " seed " + std::to_string(seed) + " estimate=" + hex(estimate) +
         " has_exact=" + (has_exact ? "1" : "0") + " exact=" + hex(exact) +
         " shots=" + std::to_string(shots) + " kappa=" + hex(kappa) +
         " cuts=" + std::to_string(cuts) + "\n";
}

/// One answer line per (class, seed), from `answer`(class, seed).
template <class Answer>
std::string lines(const Answer& answer) {
  std::string text;
  for (const PinClass& c : kClasses) {
    for (const std::uint64_t seed : kSeeds) {
      text += answer(c, seed);
    }
  }
  return text;
}

std::string answer_lines(svc::ServiceCaches* caches) {
  return lines([caches](const PinClass& c, std::uint64_t seed) {
    const svc::EstimateResult res = svc::estimate(make_request(c, seed), caches);
    return answer_line(c, seed, res.estimate, res.has_exact, res.exact, res.shots_used, res.kappa,
                       res.plan_summary.cuts);
  });
}

/// The benchmark's staged replay of svc::estimate: import, plan, splice the
/// QPD, the exact reference below the statevector cap, then
/// run_qpd_estimate on a fresh backend.
std::string staged_lines() {
  return lines([](const PinClass& c, std::uint64_t seed) {
    const svc::EstimateRequest req = make_request(c, seed);
    const Circuit circ = strip_trailing_measurements(import_qasm(req.circuit_qasm, "<request>"));
    const CutPlan plan = CutPlanner(circ, req.planner).plan();
    const Qpd qpd = PlannedExecutor(circ, plan).build_qpd(req.observable);
    const bool narrow = circ.n_qubits() <= Statevector::kMaxQubits;
    const CutRunResult res =
        narrow ? run_qpd_estimate(qpd, uncut_circuit_expectation(circ, req.observable.to_string()),
                                  req.run_cfg)
               : run_qpd_estimate(qpd, req.run_cfg);
    return answer_line(c, seed, res.estimate, res.has_exact, res.exact, res.details.shots_used,
                       res.details.kappa, plan.cuts.size());
  });
}

/// The same requests over the wire to `server`.
std::string daemon_lines(const svc::QcutServer& server) {
  svc::QcutClient client("127.0.0.1", server.port());
  return lines([&client](const PinClass& c, std::uint64_t seed) {
    svc::WireEstimateRequest req;
    req.circuit_qasm = testing::bench_shape_qasm(c.shape);
    req.observable = std::string(static_cast<std::size_t>(c.n_qubits), 'Z');
    req.max_fragment_width = c.cap;
    req.pair_budget = c.pair_budget;
    req.resource_overlap = c.overlap;
    req.shots = kShots;
    req.seed = seed;
    const svc::WireEstimateResponse res = client.estimate(req);
    EXPECT_EQ(res.status, static_cast<std::uint8_t>(svc::WireStatus::kOk)) << res.error;
    return answer_line(c, seed, res.estimate, res.has_exact != 0, res.exact, res.shots_used,
                       res.kappa, res.plan_cuts);
  });
}

TEST(AnswerPins, EveryRunMatchesTheRecordedDigest) {
  DigestCheck digest(kPins);
  const std::string probs = term_prob_lines();
  const auto check = [&](const std::string& answers, const std::string& how) {
    digest.check(probs + answers, how);
  };

  const bool metrics_before = obs::metrics_enabled();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(workers);
    const testing::ScopedPool scope(pool);
    for (const bool metrics : {false, true}) {
      obs::set_metrics_enabled(metrics);
      const std::string how = "pool " + std::to_string(workers) + ", metrics " +
                              (metrics ? "on" : "off");
      check(answer_lines(nullptr), how + ", cacheless");
      svc::ServiceCaches caches;
      check(answer_lines(&caches), how + ", cold caches");
      check(answer_lines(&caches), how + ", warm caches");
      check(staged_lines(), how + ", staged replay");
      svc::ServerConfig cfg;
      cfg.workers = workers;
      svc::QcutServer server(cfg);
      server.start();
      check(daemon_lines(server), how + ", daemon cold");
      check(daemon_lines(server), how + ", daemon warm");
      server.stop();
    }
  }
  obs::set_metrics_enabled(metrics_before);
  digest.finish();
}

TEST(AnswerPins, Fig6SweepMatchesTheRecordedDigest) {
  DigestCheck digest(kFig6Pins);
  Fig6Config cfg;
  cfg.n_states = 25;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(workers);
    const testing::ScopedPool scope(pool);
    std::string text;
    for (const Fig6Row& r : run_fig6(cfg)) {
      text += "f=" + hex(r.f) + " shots=" + std::to_string(r.shots) +
              " mean_error=" + hex(r.mean_error) + " sem=" + hex(r.sem) + "\n";
    }
    digest.check(text, "pool " + std::to_string(workers));
  }
  digest.finish();
}

}  // namespace
}  // namespace qcut
