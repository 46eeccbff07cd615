// Tests of the benchmark's own machinery: percentiles, request generation,
// class schedules and metric naming.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "driver.hpp"
#include "qcut/svc/wire.hpp"
#include "stages.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace qbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) {
    v.push_back(static_cast<double>(i));
  }
  return v;
}

TEST(Percentile, P90NeedsTenSamplesBeyondIt) {
  EXPECT_THROW(percentile(ramp(99), 0.9), std::invalid_argument);
  EXPECT_DOUBLE_EQ(percentile(ramp(100), 0.9), 90.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(1000), 0.9), 900.0);
  EXPECT_THROW(percentile(ramp(19), 0.5), std::invalid_argument);
  EXPECT_DOUBLE_EQ(percentile(ramp(20), 0.5), 10.0);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(Percentile, MedianOfEvenAndOddCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

std::string encoded(const BenchRequest& r) {
  const std::vector<std::uint8_t> bytes = qcut::svc::encode_estimate_request(r.wire);
  return std::string(bytes.begin(), bytes.end());
}

TEST(RequestStream, SameSeedGivesByteIdenticalRequests) {
  for (const WorkloadSpec& w : workloads()) {
    const RequestStream a(w, 7);
    const RequestStream b(w, 7);
    // b is read backwards: a request depends on its index only.
    std::vector<std::string> forward, backward(64);
    for (std::uint64_t i = 0; i < 64; ++i) {
      forward.push_back(encoded(a.at(i)));
    }
    for (std::uint64_t i = 64; i-- > 0;) {
      backward[i] = encoded(b.at(i));
    }
    EXPECT_EQ(forward, backward) << w.name;
  }
}

TEST(RequestStream, DifferentSeedsGiveDifferentAngles) {
  for (const WorkloadSpec& w : workloads()) {
    const RequestStream a(w, 1);
    const RequestStream b(w, 2);
    for (std::uint64_t i = 0; i < 32; ++i) {
      EXPECT_NE(a.at(i).wire.circuit_qasm, b.at(i).wire.circuit_qasm) << w.name << " #" << i;
      EXPECT_NE(a.at(i).wire.seed, b.at(i).wire.seed) << w.name << " #" << i;
    }
  }
}

TEST(RequestStream, RequestsWithinAStreamAreDistinct) {
  for (const WorkloadSpec& w : workloads()) {
    const RequestStream s(w, 3);
    std::set<std::string> seen;
    for (std::uint64_t i = 0; i < 200; ++i) {
      EXPECT_TRUE(seen.insert(encoded(s.at(i))).second) << w.name << " #" << i;
    }
  }
}

TEST(RequestStream, HotRequestsReuseTheFixedHotSet) {
  const WorkloadSpec& w = *find_workload("server_mixed");
  const RequestStream s(w, 5);
  std::set<std::string> hot_circuits, cold_circuits;
  for (std::uint64_t i = 0; i < 400; ++i) {
    const BenchRequest r = s.at(i);
    (w.classes[static_cast<std::size_t>(r.cls)].hot ? hot_circuits : cold_circuits)
        .insert(r.wire.circuit_qasm);
  }
  EXPECT_EQ(hot_circuits.size(), static_cast<std::size_t>(w.hot_set));
  EXPECT_EQ(cold_circuits.size(), 100u);
  for (const std::string& q : cold_circuits) {
    EXPECT_EQ(hot_circuits.count(q), 0u);
  }
}

TEST(RequestStream, EveryBlockHoldsTheDeclaredShares) {
  for (const WorkloadSpec& w : workloads()) {
    const RequestStream s(w, 11);
    const int block = block_size(w);
    for (int b = 0; b < 20; ++b) {
      std::vector<int> counts(w.classes.size(), 0);
      for (int k = 0; k < block; ++k) {
        ++counts[static_cast<std::size_t>(s.class_at(static_cast<std::uint64_t>(b * block + k)))];
      }
      for (std::size_t c = 0; c < w.classes.size(); ++c) {
        EXPECT_EQ(counts[c], w.classes[c].share) << w.name << " block " << b;
      }
    }
  }
}

/// True when percentile p lies at least `margin` away from every class
/// boundary of the cumulative `shares` (classes ordered by latency), so it
/// falls inside one class's latency distribution.
bool percentile_off_boundaries(const std::vector<int>& shares, double p, double margin) {
  int total = 0;
  for (int s : shares) {
    total += s;
  }
  int cumulative = 0;
  for (std::size_t i = 0; i + 1 < shares.size(); ++i) {
    cumulative += shares[i];
    if (std::abs(p - static_cast<double>(cumulative) / total) < margin) {
      return false;
    }
  }
  return true;
}

TEST(ClassShares, PercentilesStayOffClassBoundaries) {
  for (const WorkloadSpec& w : workloads()) {
    std::vector<int> shares;
    for (const ClassSpec& c : w.classes) {
      shares.push_back(c.share);
    }
    EXPECT_TRUE(percentile_off_boundaries(shares, 0.5, 0.1)) << w.name;
    EXPECT_TRUE(percentile_off_boundaries(shares, 0.9, 0.1)) << w.name;
  }
  // A 50/50 mix puts the median on the boundary, a 90/10 mix the p90.
  EXPECT_FALSE(percentile_off_boundaries({1, 1}, 0.5, 0.1));
  EXPECT_FALSE(percentile_off_boundaries({9, 1}, 0.9, 0.1));
}

TEST(AnswerCheck, UsesTheAnalyticReferenceFirst) {
  BenchRequest r;
  r.reference = 1.0;
  EXPECT_TRUE(answer_ok(r, 0.99, 0.01, false, 0.0));
  EXPECT_FALSE(answer_ok(r, 0.90, 0.01, true, 0.90));
  r.reference = std::nan("");
  EXPECT_TRUE(answer_ok(r, 0.50, 0.01, true, 0.52));
  EXPECT_FALSE(answer_ok(r, 0.50, 0.001, true, 0.52));
  EXPECT_FALSE(answer_ok(r, std::nan(""), 0.01, true, 0.5));
}

TEST(QuietestPhase, RepeatsADisturbedPhaseAndKeepsTheQuietest) {
  std::vector<double> steals = {0.20, 0.08, 0.12};
  int calls = 0;
  RunOutcome out;
  quietest_phase(
      [&] {
        const double s = steals[static_cast<std::size_t>(calls++)];
        return Phase{{{"latency_ms.p50", s * 100, "ms"}}, s};
      },
      &out);
  EXPECT_EQ(calls, kMaxPhases);
  EXPECT_EQ(out.phase_steal, steals);
  EXPECT_DOUBLE_EQ(out.steal, 0.08);
  EXPECT_DOUBLE_EQ(out.metrics.at(0).value, 8.0);

  RunOutcome quiet;
  calls = 0;
  quietest_phase([&] { return Phase{{{"x", static_cast<double>(++calls), "s"}}, 0.01}; }, &quiet);
  EXPECT_EQ(calls, 1);
  EXPECT_DOUBLE_EQ(quiet.metrics.at(0).value, 1.0);
}

/// Every metric name a run can print, end-to-end first.
std::pair<std::vector<Metric>, std::vector<Metric>> all_metrics() {
  const std::vector<double> samples = ramp(200);
  std::vector<Metric> e2e = end_to_end_metrics(1.0, 200, 1.0, samples, 1.0, 1.0);
  std::vector<Metric> layer = layer_metrics(LayerSums{}, 4);
  TraceSums t;
  t.hot_ms = t.cold_ms = t.plain_ms = t.staged_ms = t.stage_sum_ms = samples;
  RunOutcome out;
  const std::vector<Metric> more = trace_metrics(t, &out);
  EXPECT_TRUE(out.correct);
  layer.insert(layer.end(), more.begin(), more.end());
  return {e2e, layer};
}

TEST(MetricNames, MatchThePatternAndAreUnique) {
  const auto [e2e, layer] = all_metrics();
  // The contract's name rule: [A-Za-z0-9_.-]+, a letter or digit first, at
  // most 64 characters.
  const std::regex pattern("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  std::set<std::string> names;
  for (const auto* list : {&e2e, &layer}) {
    for (const Metric& m : *list) {
      EXPECT_TRUE(std::regex_match(m.name, pattern)) << m.name;
      EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
      EXPECT_FALSE(m.unit.empty()) << m.name;
    }
  }
}

/// Names listed under one BENCHMARK.json section ("end_to_end", "per_layer").
std::vector<std::string> declared(const std::string& json, const std::string& section) {
  const std::size_t start = json.find("\"" + section + "\"");
  const std::size_t end = json.find(']', start);
  const std::string body = json.substr(start, end - start);
  const std::regex name("\"name\": \"([^\"]+)\"");
  std::vector<std::string> out;
  for (std::sregex_iterator it(body.begin(), body.end(), name), last; it != last; ++it) {
    out.push_back((*it)[1]);
  }
  return out;
}

TEST(MetricNames, MatchBenchmarkJson) {
  std::ifstream in(QBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << QBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const auto [e2e, layer] = all_metrics();
  const auto names = [](const std::vector<Metric>& ms) {
    std::vector<std::string> out;
    for (const Metric& m : ms) {
      out.push_back(m.name);
    }
    return std::set<std::string>(out.begin(), out.end());
  };
  const std::vector<std::string> want_e2e = declared(text.str(), "end_to_end");
  const std::vector<std::string> want_layer = declared(text.str(), "per_layer");
  EXPECT_EQ(names(e2e), std::set<std::string>(want_e2e.begin(), want_e2e.end()));
  EXPECT_EQ(names(layer), std::set<std::string>(want_layer.begin(), want_layer.end()));
}

TEST(ResultLine, HasExactlyTheContractKeys) {
  const std::string line = result_json(true, 3, 0, {{"setup_s", 0.5, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": "
            "{\"value\": 0.5, \"unit\": \"s\"}}}");
  EXPECT_THROW(result_json(true, 1, 0, {{"x", std::nan(""), "s"}}), std::logic_error);
}

}  // namespace
}  // namespace qbench
