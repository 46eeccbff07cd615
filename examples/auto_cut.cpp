// Automatic cutting: let the planner decide where to cut.
//
// Two entry points share the pipeline:
//   * default: a 6-qubit GHZ line built with the C++ API — too wide for our
//     3-qubit "devices";
//   * --qasm <file>: any externally authored OpenQASM 2.0 circuit
//     (sim/qasm_import.hpp). Trailing measurements are stripped — the
//     estimation pipeline measures the observable itself — and the unitary
//     part is planned, cut, and executed exactly like a native circuit.
//
// Both run through the service front door (svc::estimate, the same call the
// qcut-server daemon answers): the planner derives the circuit's interaction
// timeline, searches the cut sets that keep every fragment within the device
// cap, assigns each cut a protocol from the entanglement budget (Theorem 2's
// |Φk⟩ cut inside the budget, the entanglement-free optimum κ = 3 beyond it),
// and predicts the κ²/ε² shot budget. The planned multi-cut QPD then executes
// end-to-end on the batched engine (fragment-locally when the spliced
// circuits outgrow the statevector cap) and is compared against the exact
// uncut expectation when one is computable.
//
// Observability: --trace t.json records a Chrome trace-event timeline of the
// whole plan→cut→execute pipeline (load it in chrome://tracing or
// https://ui.perfetto.dev), --report r.json writes the run's RunReport —
// shots vs budget, cache hit rates, fusion stats, kernel dispatch counts,
// pool utilization (obs/run_report.hpp).
//
// Build & run:  ./examples/auto_cut [--n 6] [--cap 3] [--f 0.85] [--budget 2]
//               [--eps 0.05] [--qasm circuit.qasm] [--obs ZZZZZZ]
//               [--trace t.json] [--report r.json]
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "qcut/common/cli.hpp"
#include "qcut/common/error.hpp"
#include "qcut/obs/trace.hpp"
#include "qcut/plan/cut_planner.hpp"
#include "qcut/sim/observable.hpp"
#include "qcut/sim/qasm_import.hpp"
#include "qcut/svc/api.hpp"

int main(int argc, char** argv) {
  using namespace qcut;
  Cli cli(argc, argv);
  const int cap = static_cast<int>(cli.get_int("cap", 3));
  const Real f = cli.get_real("f", 0.85);
  const int budget = static_cast<int>(cli.get_int("budget", 2));
  const Real eps = cli.get_real("eps", 0.05);

  // 1. The circuit: imported from QASM, or the built-in GHZ line.
  Circuit circ;
  if (cli.has("qasm")) {
    const std::string path = cli.get("qasm", "");
    try {
      circ = import_qasm_file(path);
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    int stripped = 0;
    circ = strip_trailing_measurements(circ, &stripped);
    std::printf("circuit: %s (%d qubits, %zu ops%s), device cap %d qubits\n", path.c_str(),
                circ.n_qubits(), circ.size(),
                stripped > 0 ? ", trailing measurements stripped" : "", cap);
  } else {
    const int n = static_cast<int>(cli.get_int("n", 6));
    circ = Circuit(n, 0);
    circ.h(0);
    for (int q = 0; q + 1 < n; ++q) {
      circ.cx(q, q + 1);
    }
    std::printf("circuit: %d-qubit GHZ line, device cap %d qubits\n", n, cap);
  }
  const std::string obs_string =
      cli.get("obs", std::string(static_cast<std::size_t>(circ.n_qubits()),
                                 cli.has("qasm") ? 'Z' : 'X'));
  Observable observable;
  try {
    observable = Observable::parse(obs_string);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::printf("observable: %s\n", observable.to_string().c_str());

  const std::string trace_path = cli.get("trace", "");
  const std::string report_path = cli.get("report", "");
  if (!trace_path.empty()) {
    obs::start_tracing();
  }

  try {
  // 2+3. Plan and execute through the service front door: one typed request
  // in, plan + estimate + report out. This is the same svc::estimate call the
  // qcut-server daemon answers, so everything printed below is reproducible
  // over the wire bit-for-bit.
  svc::EstimateRequest req;
  req.circuit = circ;
  req.observable = observable;
  req.epsilon = eps;  // plan (and run, shots = 0) at the κ²/ε² budget
  req.planner.max_fragment_width = cap;
  req.planner.resource_overlap = f;
  req.planner.pair_budget = budget;
  req.run_cfg.shots = 0;
  req.run_cfg.seed = 2024;

  const svc::EstimateResult result = svc::estimate(req);
  std::printf("%s\n", result.plan->to_string().c_str());

  // What the same cap costs without any entanglement: the planner's budget
  // knob is exactly the paper's message, κ per cut shrinking from 3 toward 1.
  PlannerConfig bare = req.planner;
  bare.target_accuracy = eps;
  bare.pair_budget = 0;
  const CutPlan plain = CutPlanner(circ, bare).plan();
  std::printf("same cap without entanglement: kappa %.3f -> %.0f shots (vs %.0f planned, "
              "%.1fx saved)\n\n",
              plain.total_kappa, plain.predicted_shots, result.plan_summary.predicted_shots,
              plain.predicted_shots / result.plan_summary.predicted_shots);

  const CutRunResult& res = result.run;

  if (!trace_path.empty()) {
    obs::write_trace(trace_path);
    std::printf("trace   -> %s (chrome://tracing / ui.perfetto.dev)\n", trace_path.c_str());
  }
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    QCUT_CHECK(out.good(), "cannot open --report path '" + report_path + "'");
    out << res.report.to_json() << "\n";
    QCUT_CHECK(out.good(), "failed writing --report path '" + report_path + "'");
    std::printf("report  -> %s\n", report_path.c_str());
  }

  std::printf("planned <O> = %+.6f   (+- %.4f 95%% CI, %llu shots, %llu entangled pairs "
              "consumed)\n",
              res.estimate, result.ci_halfwidth,
              static_cast<unsigned long long>(res.details.shots_used),
              static_cast<unsigned long long>(res.details.entangled_pairs_used));
  if (!res.has_exact) {
    std::printf("exact   <O> =  (circuit too wide for a monolithic reference)\n");
    return 0;
  }
  std::printf("exact   <O> = %+.6f\n", res.exact);
  std::printf("|error|     =  %.6f   (target eps = %.3f)\n", res.abs_error, eps);
  return res.abs_error <= 3.0 * eps ? 0 : 1;
  } catch (const Error& e) {
    // Infeasible caps, mid-circuit measurement/feed-forward the planner
    // cannot analyze, entangled cuts on fragment-only widths, ...: report,
    // don't abort.
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
