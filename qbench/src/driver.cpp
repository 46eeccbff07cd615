#include "driver.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "stages.hpp"

namespace qbench {

void RunOutcome::fail(const std::string& why) {
  ++failed;
  correct = false;
  std::fprintf(stderr, "qbench: FAILED %s\n", why.c_str());
}

void quietest_phase(const std::function<Phase()>& phase, RunOutcome* out) {
  for (int k = 0; k < kMaxPhases; ++k) {
    Phase p = phase();
    if (!out->correct) {
      return;
    }
    out->phase_steal.push_back(p.steal);
    if (k == 0 || p.steal < out->steal) {
      out->steal = p.steal;
      out->metrics = std::move(p.metrics);
    }
    if (p.steal <= kQuietSteal) {
      return;
    }
  }
}

std::vector<Metric> end_to_end_metrics(double setup_s, std::size_t answered, double wall_s,
                                       const std::vector<double>& latency_ms, double cpu_s,
                                       double peak_rss_mb) {
  return {
      {"setup_s", setup_s, "s"},
      {"requests_per_s", static_cast<double>(answered) / wall_s, "1/s"},
      {"latency_ms.p50", percentile(latency_ms, 0.50), "ms"},
      {"latency_ms.p90", percentile(latency_ms, 0.90), "ms"},
      {"cpu_ms_per_request", 1e3 * cpu_s / static_cast<double>(answered), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
}

void WireSums::add(const qcut::svc::WireEstimateRequest& req,
                   const qcut::svc::WireEstimateResponse& resp) {
  namespace svc = qcut::svc;
  const std::uint64_t t0 = now_ns();
  const std::vector<std::uint8_t> req_bytes = svc::encode_estimate_request(req);
  const std::vector<std::uint8_t> resp_bytes = svc::encode_estimate_response(resp);
  const std::uint64_t t1 = now_ns();
  const svc::WireEstimateRequest req_back = svc::decode_estimate_request(req_bytes);
  const svc::WireEstimateResponse resp_back = svc::decode_estimate_response(resp_bytes);
  const std::uint64_t t2 = now_ns();
  // Keep the decoded frames observable so the decode cannot be elided.
  if (req_back.seed != req.seed || resp_back.shots_used != resp.shots_used) {
    throw std::runtime_error("wire: frame did not round-trip");
  }
  ++n;
  request_bytes += static_cast<double>(req_bytes.size() + svc::kFrameHeaderSize);
  response_bytes += static_cast<double>(resp_bytes.size() + svc::kFrameHeaderSize);
  encode_us += static_cast<double>(t1 - t0) * 1e-3;
  decode_us += static_cast<double>(t2 - t1) * 1e-3;
}

std::vector<Metric> WireSums::metrics() const {
  const double k = n == 0 ? 0.0 : 1.0 / static_cast<double>(n);
  return {
      {"wire.request_bytes", request_bytes * k, "bytes"},
      {"wire.response_bytes", response_bytes * k, "bytes"},
      {"wire.encode_us", encode_us * k, "us"},
      {"wire.decode_us", decode_us * k, "us"},
  };
}

qcut::svc::WireEstimateResponse to_wire_response(const qcut::svc::EstimateResult& res) {
  qcut::svc::WireEstimateResponse resp;
  resp.estimate = res.estimate;
  resp.ci_halfwidth = res.ci_halfwidth;
  resp.has_exact = res.has_exact ? 1 : 0;
  resp.exact = res.exact;
  resp.shots_used = res.shots_used;
  resp.kappa = res.kappa;
  resp.plan_cuts = res.plan_summary.cuts;
  resp.plan_gate_cuts = res.plan_summary.gate_cuts;
  resp.plan_total_kappa = res.plan_summary.total_kappa;
  resp.plan_predicted_shots = res.plan_summary.predicted_shots;
  resp.plan_max_width = res.plan_summary.max_width;
  resp.plan_max_sim_width = res.plan_summary.max_sim_width;
  resp.plan_cache_hit = res.plan_cache_hit ? 1 : 0;
  resp.eval_cache_hit = res.eval_cache_hit ? 1 : 0;
  resp.report_json = res.run.report.to_json(2);
  return resp;
}

std::vector<Metric> trace_metrics(const TraceSums& t, RunOutcome* out) {
  const auto ratio = [](double num, double den) { return den == 0.0 ? 0.0 : num / den; };
  std::vector<double> coverage;
  for (std::size_t i = 0; i < t.plain_ms.size(); ++i) {
    coverage.push_back(t.stage_sum_ms[i] / t.plain_ms[i]);
  }
  const double cov = median(coverage);
  if (cov < kMinStageCoverage) {
    out->fail("stage times cover " + std::to_string(cov) + " of svc::estimate's wall time");
  }
  const double cold_p50 = percentile(t.cold_ms, 0.5);
  const double plain_p50 = percentile(t.plain_ms, 0.5);
  std::vector<Metric> m = {
      {"svc.hot_ms.p50", percentile(t.hot_ms, 0.5), "ms"},
      {"svc.cold_ms.p50", cold_p50, "ms"},
      {"svc.cold_ms.p90", percentile(t.cold_ms, 0.9), "ms"},
      {"svc.inprocess_cold_ms.p50", plain_p50, "ms"},
      {"svc.server_overhead_ratio", cold_p50 / plain_p50, "ratio"},
      {"svc.plan_hit_ratio", ratio(t.plan_hits, t.plan_hits + t.plan_misses), "ratio"},
      {"svc.eval_hit_ratio", ratio(t.eval_hits, t.eval_hits + t.eval_misses), "ratio"},
      {"svc.coalesced_ratio", ratio(t.coalesced, t.requests), "ratio"},
      {"svc.rejected_ratio", ratio(t.rejected, t.requests), "ratio"},
      {"trace.stage_coverage", cov, "ratio"},
      {"trace.overhead_ratio", median(t.staged_ms) / median(t.plain_ms), "ratio"},
  };
  const std::vector<Metric> w = t.wire.metrics();
  m.insert(m.end(), w.begin(), w.end());
  return m;
}

bool same_answer(double a, std::uint64_t shots_a, double b, std::uint64_t shots_b) {
  return std::memcmp(&a, &b, sizeof a) == 0 && shots_a == shots_b;
}

}  // namespace qbench
