// Cut-planner harness: plan quality and planned-vs-uncut estimation error
// across circuit families.
//
// Families:
//  * ghz      — GHZ lines h(0), cx(0,1), ..., cx(n-2,n-1): one candidate per
//    wire, the paper's canonical chain workload;
//  * qft      — QFT-like ladders h(q) + nearest-neighbor controlled-phase
//    chain: denser timelines, more candidates per wire;
//  * brick    — random brickwork of Haar 2-qubit gates (alternating pairs);
//  * cpgate / cpwire — two 2q halves joined only by one diagonal cp gate,
//    planned with gate cuts allowed vs wire-only: the gate-cut row should
//    beat the wire-only row (Mitarai–Fujii κ(θ) < the κ-3 chains the
//    reconnecting cx structure forces on wire plans);
//  * hetdev   — GHZ on two explicit 4-qubit QPUs (heterogeneous DeviceModel
//    caps instead of a uniform width bound);
//  * hetlink  — GHZ over two entangled links of different quality: the
//    planner must grant the best (lowest-κ) slot first;
//  * nme      — the paper's NME setting: hwe_ansatz_8 at cap 6 with two
//    f = 0.9 pairs (fixed, independent of --f/--budget). Its search-node
//    count is gated: a weaker branch-and-bound bound fails the smoke run.
//
// Front door (record only, no gate): the two serial stages every request
// runs before any fragment is simulated, on the end-to-end benchmark's
// request shapes and classes — QASM import (import_qasm +
// strip_trailing_measurements), CutPlanner construction, and plan() — in µs
// per call, each the min over round-robin batches, plus the search nodes.
//
// For every instance the planner runs under a width cap; reported per row:
// candidate count, chosen cuts, total κ, overhead Π κ_i², search nodes,
// planning time, and (small instances) the measured |estimate − exact| of the
// planned multi-cut execution at the predicted κ²/ε² budget, plus an
// optimality check against brute-force subset enumeration.
//
// Usage: bench_planner [--smoke] [--eps 0.05] [--f 0.85] [--budget 2]
//                      [--out PATH] [--seed N]
// The JSON record defaults to planner_bench.json *next to the executable*
// (the build tree), so running from a source checkout leaves no stray file;
// --out (or the legacy --json) overrides the destination.
// --smoke runs the small deterministic subset and exits non-zero when a plan
// misses brute-force optimality, the executed error leaves the 3ε band, or
// the nme row visits more than kNmeMaxNodes search nodes — the CI gate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "qcut/common/cli.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/obs/run_report.hpp"
#include "qcut/plan/circuit_graph.hpp"
#include "qcut/plan/cut_planner.hpp"
#include "qcut/plan/planned_executor.hpp"
#include "qcut/sim/qasm_import.hpp"
#include "../tests/bench_shapes.hpp"

#ifndef QCUT_QASM_CORPUS_DIR
#define QCUT_QASM_CORPUS_DIR "tests/qasm_corpus"
#endif

namespace {

using Clock = std::chrono::steady_clock;
using namespace qcut;

// The slot-aware bound plans the nme row in 266 nodes; a bound that charges
// every wire cut the best slot's κ needs 77,902, so the ceiling separates
// the two by two orders of magnitude.
constexpr std::size_t kNmeMaxNodes = 1000;

Circuit ghz_line(int n) {
  Circuit c(n, 0);
  c.h(0);
  for (int q = 0; q + 1 < n; ++q) {
    c.cx(q, q + 1);
  }
  return c;
}

Matrix cphase(Real theta) {
  Matrix m = Matrix::identity(4);
  m(3, 3) = std::polar<Real>(1.0, theta);
  return m;
}

Circuit qft_ladder(int n) {
  Circuit c(n, 0);
  for (int q = 0; q < n; ++q) {
    c.h(q);
    if (q + 1 < n) {
      c.gate(cphase(kPi / 2.0), {q, q + 1}, "cp");
    }
  }
  return c;
}

Circuit brickwork(int n, int depth, Rng& rng) {
  Circuit c(n, 0);
  for (int d = 0; d < depth; ++d) {
    for (int q = d % 2; q + 1 < n; q += 2) {
      c.gate(haar_unitary(4, rng), {q, q + 1}, "U2");
    }
  }
  return c;
}

// Two entangling halves {0,1} and {2,3} whose only bridge is a single
// diagonal cp(0.6) on {1,2}: one ZZ gate cut (κ = 1 + 2 sin 0.3 ≈ 1.59)
// separates them, while the cx gates on both sides reconnect any wire cut.
Circuit cp_linked_halves() {
  Circuit c(4, 0);
  for (int q = 0; q < 4; ++q) {
    c.h(q);
  }
  c.cx(0, 1);
  c.cx(2, 3);
  c.gate(cphase(0.6), {1, 2}, "cp");
  c.cx(0, 1);
  c.cx(2, 3);
  return c;
}

struct Row {
  std::string family;
  int n = 0;
  int width_cap = 0;
  std::size_t candidates = 0;
  std::size_t cuts = 0;
  std::size_t gate_cuts = 0;
  Real kappa = 0.0;
  Real overhead = 0.0;
  Real predicted_shots = 0.0;
  int max_sim_width = 0;
  std::size_t nodes = 0;
  double plan_ms = 0.0;
  bool brute_checked = false;
  bool brute_optimal = true;
  bool executed = false;
  Real abs_error = 0.0;
};

Row run_instance(const std::string& family, const Circuit& circ, const PlannerConfig& pcfg,
                 bool execute, bool brute_check, std::uint64_t seed,
                 std::size_t brute_max_candidates = 16) {
  Row row;
  row.family = family;
  row.n = circ.n_qubits();
  row.width_cap = pcfg.max_fragment_width;

  const CutPlanner planner(circ, pcfg);
  // The search space (wire gaps + gate candidates when allowed) — also the
  // brute-force oracle's domain, so the candidate guard below bounds its 2^m
  // scan (16 by default: 65k subsets; 20 is about 1M, a second in Release).
  row.candidates = planner.search_candidates().size();
  const auto start = Clock::now();
  const CutPlan plan = planner.plan();
  row.plan_ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  row.cuts = plan.cuts.size();
  row.gate_cuts = plan.gate_cut_count();
  row.kappa = plan.total_kappa;
  row.overhead = plan.total_overhead;
  row.predicted_shots = plan.predicted_shots;
  row.max_sim_width = plan.max_sim_width;
  row.nodes = plan.nodes_explored;

  if (brute_check && row.candidates <= brute_max_candidates) {
    row.brute_checked = true;
    const Real ref = planner.reference_overhead();  // bitmask scan of all subsets
    row.brute_optimal = std::abs(plan.total_overhead - ref) <= 1e-9 * (1.0 + ref);
  }
  if (execute) {
    const PlannedExecutor exec(circ, plan);
    CutRunConfig rcfg;
    rcfg.shots = 0;  // planner-predicted budget
    rcfg.seed = seed;
    row.executed = true;
    row.abs_error = exec.run(Observable::z_all(circ.n_qubits()), rcfg).abs_error;
  }
  return row;
}

// ---- front door --------------------------------------------------------------

constexpr int kFrontDoorBatches = 15;

struct FrontDoorRow {
  std::string name;
  PlannerConfig cfg;
  std::string qasm;
  int reps = 1;  ///< calls per timed batch, sized to about a millisecond
  double import_us = 0.0;
  double construct_us = 0.0;
  double search_us = 0.0;
  std::size_t nodes = 0;
};

FrontDoorRow front_door_row(const char* name, testing::BenchShape shape, int cap, int budget,
                            Real f) {
  FrontDoorRow row;
  row.name = name;
  row.cfg.max_fragment_width = cap;
  row.cfg.pair_budget = budget;
  row.cfg.resource_overlap = f;
  row.qasm = testing::bench_shape_qasm(shape);
  return row;
}

double us_since(Clock::time_point t0, int reps) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count() / reps;
}

/// The end-to-end benchmark's six request classes, timed round-robin: every
/// batch visits every row, and each figure is its row's fastest batch.
std::vector<FrontDoorRow> measure_front_door() {
  using testing::BenchShape;
  std::vector<FrontDoorRow> rows = {
      front_door_row("ghz8_cap3", BenchShape::kGhz8, 3, 0, 0.5),
      front_door_row("hwe8_cap4", BenchShape::kHwe8, 4, 0, 0.5),
      front_door_row("hwe8_cap6_nme", BenchShape::kHwe8, 6, 2, 0.9),
      front_door_row("hwe8_cap5", BenchShape::kHwe8, 5, 0, 0.5),
      front_door_row("ghz30_cap16", BenchShape::kGhz30, 16, 0, 0.5),
      front_door_row("brick30_cap16", BenchShape::kBrick30, 16, 0, 0.5),
  };
  for (FrontDoorRow& row : rows) {
    const auto t0 = Clock::now();
    const Circuit circ = strip_trailing_measurements(import_qasm(row.qasm, "<request>"));
    row.nodes = CutPlanner(circ, row.cfg).plan().nodes_explored;
    row.reps = std::clamp(static_cast<int>(1000.0 / std::max(us_since(t0, 1), 1e-3)), 1, 200);
  }
  for (int b = 0; b < kFrontDoorBatches; ++b) {
    for (FrontDoorRow& row : rows) {
      auto t0 = Clock::now();
      for (int r = 0; r < row.reps; ++r) {
        (void)strip_trailing_measurements(import_qasm(row.qasm, "<request>"));
      }
      const double import_us = us_since(t0, row.reps);
      const Circuit circ = strip_trailing_measurements(import_qasm(row.qasm, "<request>"));
      t0 = Clock::now();
      for (int r = 0; r < row.reps; ++r) {
        const CutPlanner planner(circ, row.cfg);
      }
      const double construct_us = us_since(t0, row.reps);
      const CutPlanner planner(circ, row.cfg);
      t0 = Clock::now();
      for (int r = 0; r < row.reps; ++r) {
        (void)planner.plan();
      }
      const double search_us = us_since(t0, row.reps);
      if (b == 0 || import_us < row.import_us) row.import_us = import_us;
      if (b == 0 || construct_us < row.construct_us) row.construct_us = construct_us;
      if (b == 0 || search_us < row.search_us) row.search_us = search_us;
    }
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool smoke = cli.get_bool("smoke", false);
  const Real eps = cli.get_real("eps", 0.05);
  const Real f = cli.get_real("f", 0.85);
  const int budget = static_cast<int>(cli.get_int("budget", 2));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const std::string json_path = cli.output_path("json", "planner_bench.json");

  PlannerConfig base;
  base.resource_overlap = f;
  base.pair_budget = budget;
  base.target_accuracy = eps;

  Rng brick_rng(11);
  std::vector<Row> rows;

  // Small instances: brute-force-checked and executed end-to-end.
  for (int n : {4, 5, 6}) {
    PlannerConfig cfg = base;
    cfg.max_fragment_width = (n + 1) / 2;
    rows.push_back(run_instance("ghz", ghz_line(n), cfg, /*execute=*/true,
                                /*brute_check=*/true, seed));
  }
  {
    PlannerConfig cfg = base;
    cfg.max_fragment_width = 3;
    rows.push_back(run_instance("qft", qft_ladder(5), cfg, true, true, seed));
    rows.push_back(run_instance("brick", brickwork(5, 2, brick_rng), cfg, true, true, seed));
  }

  // Gate cut vs wire-only on the same instance. The wire-only plan can be
  // orders of magnitude more expensive (every wire plan must sever the
  // reconnecting cx chains at κ = 3 each), so only the gate-cut row executes.
  Real cpgate_overhead = 0.0;
  Real cpwire_overhead = 0.0;
  {
    PlannerConfig cfg = base;
    cfg.max_fragment_width = 2;
    rows.push_back(run_instance("cpgate", cp_linked_halves(), cfg, true, true, seed));
    cpgate_overhead = rows.back().overhead;
    cfg.allow_gate_cuts = false;
    rows.push_back(run_instance("cpwire", cp_linked_halves(), cfg, false, true, seed));
    cpwire_overhead = rows.back().overhead;
  }

  // Heterogeneous device caps: ghz(7) on two explicit 4-qubit QPUs — only
  // the {4,3}-width cut gives a fragment-per-device matching.
  {
    PlannerConfig cfg = base;
    cfg.max_fragment_width = 4;  // display only; the explicit devices govern
    cfg.device_model.devices = {{4, "qpu-a"}, {4, "qpu-b"}};
    cfg.device_model.links = {{f, budget, LinkFamily::kNme}};
    rows.push_back(run_instance("hetdev", ghz_line(7), cfg, true, true, seed));
  }

  // Heterogeneous links: one perfect pair (κ = 1) and one f = 0.8 pair
  // (κ = 1.5); the two cuts ghz(6)@cap-3 needs should be granted best first.
  {
    PlannerConfig cfg = base;
    cfg.max_fragment_width = 3;
    cfg.device_model.links = {{0.8, 1, LinkFamily::kNme}, {1.0, 1, LinkFamily::kNme}};
    rows.push_back(run_instance("hetlink", ghz_line(6), cfg, true, true, seed));
  }

  // The paper's NME setting (the qbench nme_plan instance).
  std::size_t nme_nodes = 0;
  {
    PlannerConfig cfg = base;
    cfg.max_fragment_width = 6;
    cfg.resource_overlap = 0.9;
    cfg.pair_budget = 2;
    const Circuit hwe = import_qasm_file(std::string(QCUT_QASM_CORPUS_DIR) + "/hwe_ansatz_8.qasm");
    rows.push_back(run_instance("nme", hwe, cfg, true, true, seed, /*brute_max_candidates=*/20));
    nme_nodes = rows.back().nodes;
  }

  if (!smoke) {
    // Larger planning-only instances (execution cost grows exponentially with
    // the spliced width; the planner itself stays cheap). The IR allows up to
    // Circuit::kMaxQubits wires — wide plans are what the fragment-local
    // execution path consumes.
    for (int n : {10, 14, 18, 20, 30, 40}) {
      PlannerConfig cfg = base;
      cfg.max_fragment_width = (n + 2) / 3;
      cfg.max_cuts = 10;
      rows.push_back(run_instance("ghz", ghz_line(n), cfg, false, n <= 14, seed));
    }
    for (int n : {8, 10, 12}) {
      PlannerConfig cfg = base;
      cfg.max_fragment_width = (n + 1) / 2;
      rows.push_back(run_instance("qft", qft_ladder(n), cfg, false, n <= 10, seed));
    }
    {
      PlannerConfig cfg = base;
      cfg.max_fragment_width = 4;
      rows.push_back(run_instance("brick", brickwork(7, 2, brick_rng), cfg, false, true, seed));
    }
  }

  std::printf("=== Cut planner: overhead-optimal multi-cut discovery ===\n");
  std::printf("eps=%.3f  resource f=%.2f  pair budget=%d\n\n", eps, f, budget);
  std::printf("%-7s %4s %5s %6s %5s %6s %9s %10s %12s %5s %7s %9s %8s %8s\n", "family", "n",
              "cap", "cands", "cuts", "gcuts", "kappa", "overhead", "pred.shots", "simw", "nodes",
              "plan(ms)", "optimal", "|error|");
  bool all_optimal = true;
  bool all_within_band = true;
  for (const auto& r : rows) {
    if (r.brute_checked && !r.brute_optimal) {
      all_optimal = false;
    }
    if (r.executed && r.abs_error > 3.0 * eps) {
      all_within_band = false;
    }
    char err_buf[16] = "-";
    if (r.executed) {
      std::snprintf(err_buf, sizeof(err_buf), "%.4f", r.abs_error);
    }
    std::printf("%-7s %4d %5d %6zu %5zu %6zu %9.4f %10.3f %12.0f %5d %7zu %9.3f %8s %8s\n",
                r.family.c_str(), r.n, r.width_cap, r.candidates, r.cuts, r.gate_cuts, r.kappa,
                r.overhead, r.predicted_shots, r.max_sim_width, r.nodes, r.plan_ms,
                r.brute_checked ? (r.brute_optimal ? "yes" : "NO") : "-", err_buf);
  }

  const std::vector<FrontDoorRow> front_door = measure_front_door();
  std::printf("\n=== Front door: QASM import, planner construction, search (us per call, "
              "min of %d round-robin batches; record only) ===\n",
              kFrontDoorBatches);
  std::printf("%-14s %6s %10s %12s %10s %8s\n", "class", "bytes", "import", "construct",
              "search", "nodes");
  for (const FrontDoorRow& r : front_door) {
    std::printf("%-14s %6zu %10.2f %12.2f %10.2f %8zu\n", r.name.c_str(), r.qasm.size(),
                r.import_us, r.construct_us, r.search_us, r.nodes);
  }

  std::ofstream json(json_path);
  json << "{\n  \"provenance\": " << obs::provenance_json(2) << ",\n  \"eps\": " << eps
       << ",\n  \"resource_f\": " << f << ",\n  \"pair_budget\": " << budget
       << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    json << "    {\"family\": \"" << r.family << "\", \"n\": " << r.n
         << ", \"width_cap\": " << r.width_cap << ", \"candidates\": " << r.candidates
         << ", \"cuts\": " << r.cuts << ", \"gate_cuts\": " << r.gate_cuts
         << ", \"kappa\": " << r.kappa << ", \"overhead\": " << r.overhead
         << ", \"predicted_shots\": " << r.predicted_shots
         << ", \"max_sim_width\": " << r.max_sim_width << ", \"nodes\": " << r.nodes
         << ", \"plan_ms\": " << r.plan_ms
         << ", \"brute_optimal\": " << (r.brute_checked ? (r.brute_optimal ? "true" : "false")
                                                        : "null")
         << ", \"abs_error\": " << (r.executed ? r.abs_error : -1.0) << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"front_door\": [\n";
  for (std::size_t i = 0; i < front_door.size(); ++i) {
    const FrontDoorRow& r = front_door[i];
    json << "    {\"class\": \"" << r.name << "\", \"width_cap\": " << r.cfg.max_fragment_width
         << ", \"pair_budget\": " << r.cfg.pair_budget
         << ", \"resource_f\": " << r.cfg.resource_overlap << ", \"qasm_bytes\": " << r.qasm.size()
         << ", \"import_us\": " << r.import_us << ", \"construct_us\": " << r.construct_us
         << ", \"search_us\": " << r.search_us << ", \"nodes\": " << r.nodes << "}"
         << (i + 1 < front_door.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::printf("\nwrote %s\n", json_path.c_str());

  if (!all_optimal) {
    std::printf("ERROR: a plan missed the brute-force optimum\n");
    return 1;
  }
  if (!all_within_band) {
    std::printf("ERROR: an executed plan left the 3*eps error band at the predicted budget\n");
    return 1;
  }
  if (nme_nodes > kNmeMaxNodes) {
    std::printf("ERROR: the nme plan search visited %zu nodes (limit %zu)\n", nme_nodes,
                kNmeMaxNodes);
    return 1;
  }
  if (cpgate_overhead >= cpwire_overhead) {
    std::printf("ERROR: the gate-cut plan (%.3f) did not beat the wire-only plan (%.3f)\n",
                cpgate_overhead, cpwire_overhead);
    return 1;
  }
  std::printf("all plans brute-force optimal; executed errors within 3*eps at predicted "
              "budgets; nme search %zu <= %zu nodes; gate cut beat wire-only %.3f < %.3f\n",
              nme_nodes, kNmeMaxNodes, cpgate_overhead, cpwire_overhead);
  return 0;
}
