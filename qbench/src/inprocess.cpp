// In-process workloads: one caller in a closed loop calling svc::estimate
// without caches (the plan_and_run path) on the global pool.
#include "driver.hpp"
#include "probe.hpp"
#include "qcut/svc/cache.hpp"
#include "stages.hpp"

namespace qbench {

namespace svc = qcut::svc;

namespace {

/// One set-up pass: build the request stream and answer one untimed
/// warm-up request per class (lazy initialisation, pool start).
double setup_pass(const RunArgs& args, int rep, std::uint64_t start_ns, RunOutcome* out) {
  const RequestStream stream(*args.spec, args.seed);
  for (int c = 0; c < static_cast<int>(args.spec->classes.size()); ++c) {
    const BenchRequest req = stream.warmup(c, rep);
    const svc::EstimateResult res = svc::estimate(to_estimate_request(req.wire));
    if (!answer_ok(req, res.estimate, res.ci_halfwidth, res.has_exact, res.exact)) {
      out->fail("warm-up answer check: " + req.wire.request_id);
    }
  }
  return ms_since(start_ns) * 1e-3;
}

double measure_setup(const RunArgs& args, RunOutcome* out) {
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setups.push_back(setup_pass(args, rep, rep == 0 ? args.start_ns : now_ns(), out));
  }
  return median(setups);
}

/// One timed phase over the stream from request *next on.
Phase timed_phase(const RunArgs& args, double setup_s, std::uint64_t* next, RunOutcome* out) {
  const RequestStream stream(*args.spec, args.seed);
  std::vector<double> latency_ms;
  const HostSteal steal;
  const double cpu0 = cpu_seconds(0);
  const std::uint64_t start = now_ns();
  while (ms_since(start) < args.seconds * 1e3 || latency_ms.size() < kMinRequests) {
    const BenchRequest req = stream.at((*next)++);
    const svc::EstimateRequest sreq = to_estimate_request(req.wire);
    ++out->attempted;
    const std::uint64_t t0 = now_ns();
    svc::EstimateResult res;
    try {
      res = svc::estimate(sreq);
    } catch (const std::exception& e) {
      out->fail(req.wire.request_id + ": " + e.what());
      return {};
    }
    const double ms = ms_since(t0);
    if (!answer_ok(req, res.estimate, res.ci_halfwidth, res.has_exact, res.exact)) {
      out->fail("answer check: " + req.wire.request_id);
      return {};
    }
    latency_ms.push_back(ms);
  }
  const double wall_s = ms_since(start) * 1e-3;
  const double cpu_s = cpu_seconds(0) - cpu0;
  return {end_to_end_metrics(setup_s, latency_ms.size(), wall_s, latency_ms, cpu_s,
                             peak_rss_mb(0)),
          steal.share()};
}

/// One request at a time: the staged composition, the plain svc::estimate
/// call it must reproduce bit for bit, and a cold-then-hot pair through
/// fresh service caches.
void run_traced(const RunArgs& args, RunOutcome* out) {
  const RequestStream stream(*args.spec, args.seed);
  LayerSums layers;
  TraceSums t;
  const std::uint64_t start = now_ns();
  for (std::uint64_t i = 0; ms_since(start) < args.seconds * 1e3 || t.plain_ms.size() < kMinRequests;
       ++i) {
    const BenchRequest req = stream.at(i);
    const svc::EstimateRequest sreq = to_estimate_request(req.wire);
    ++out->attempted;
    // Alternate which of the two runs goes first so neither always finds
    // the other's warm memory.
    StagedRun staged;
    svc::EstimateResult plain;
    double plain_wall = 0.0;
    auto run_plain = [&] {
      const std::uint64_t t0 = now_ns();
      plain = svc::estimate(sreq);
      plain_wall = ms_since(t0);
    };
    if (i % 2 == 0) {
      staged = run_staged(sreq);
      run_plain();
    } else {
      run_plain();
      staged = run_staged(sreq);
    }
    svc::ServiceCaches caches;
    std::uint64_t t0 = now_ns();
    const svc::EstimateResult cold = svc::estimate(sreq, &caches);
    const double cold_wall = ms_since(t0);
    svc::EstimateRequest again = sreq;
    again.run_cfg.seed ^= 0x5bd1e995u;
    t0 = now_ns();
    const svc::EstimateResult hot = svc::estimate(again, &caches);
    t.hot_ms.push_back(ms_since(t0));
    t.cold_ms.push_back(cold_wall);
    for (const svc::EstimateResult* r : {&cold, &hot}) {
      (r->plan_cache_hit ? t.plan_hits : t.plan_misses) += 1.0;
      (r->eval_cache_hit ? t.eval_hits : t.eval_misses) += 1.0;
    }
    t.requests += 2.0;

    if (!same_answer(staged.estimate, staged.shots_used, plain.estimate, plain.shots_used) ||
        !same_answer(cold.estimate, cold.shots_used, plain.estimate, plain.shots_used)) {
      out->fail("composed estimate differs from svc::estimate: " + req.wire.request_id);
      return;
    }
    if (!answer_ok(req, plain.estimate, plain.ci_halfwidth, plain.has_exact, plain.exact) ||
        !answer_ok(req, hot.estimate, hot.ci_halfwidth, hot.has_exact, hot.exact)) {
      out->fail("answer check: " + req.wire.request_id);
      return;
    }
    layers.add_staged(staged);
    layers.add_counters(staged.counters);
    ++layers.counted;
    layers.counted_wall_ms += staged.wall_ms;
    t.staged_ms.push_back(staged.wall_ms);
    t.stage_sum_ms.push_back(staged.ms.sum());
    t.plain_ms.push_back(plain_wall);
    t.wire.add(req.wire, to_wire_response(plain));
  }

  out->metrics = layer_metrics(layers, qcut::global_pool().size());
  const std::vector<Metric> more = trace_metrics(t, out);
  out->metrics.insert(out->metrics.end(), more.begin(), more.end());
}

}  // namespace

RunOutcome run_inprocess(const RunArgs& args) {
  RunOutcome out;
  const double setup_s = measure_setup(args, &out);
  if (!out.correct) {
    return out;
  }
  if (args.trace) {
    run_traced(args, &out);
  } else {
    std::uint64_t next = 0;
    quietest_phase([&] { return timed_phase(args, setup_s, &next, &out); }, &out);
  }
  return out;
}

}  // namespace qbench
