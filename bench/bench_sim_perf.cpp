// Engine performance harness: shots/sec of every execution path on the
// Theorem-2 workload, statevector gate-kernel throughput, and the wide-run
// fragment-path throughput.
//
// Backends measured on one NmeCut(f=0.6) QPD (Haar-random input, observable
// Z, proportional allocation):
//  * serial           — SerialShotBackend, single stream (legacy semantics);
//  * batched          — BatchedBranchBackend through the engine, pool size 1;
//  * parallel         — BatchedBranchBackend through the engine on an
//    N-thread pool (same bit-identical result by construction);
//  * parallel-serial  — SerialShotBackend through the engine on the pool
//    (per-shot simulation, term-parallel).
// Each row records the tasks its run submitted to its pool (record only):
// the engine fans out one index per term, so the parallel rows read at most
// the term count.
//
// Fragment path (the wide-circuit hot path): planned GHZ-30 plus QASM-corpus
// workloads, each measured two ways —
//  * serial baseline  — the PR-3 semantics: per-term fresh split_term, one
//    full branch enumeration per (fragment, read assignment), and gate
//    classification stripped (the old dense kernels). This is the yardstick
//    the speedup floor pins.
//  * optimized        — BatchedBranchBackend: each fragment variant built from
//    the cut layout and evaluated once, prefix-once suffix-per-assignment
//    enumeration, trailing-measure amplitude fold, specialized kernels, the
//    variants' terms across the thread pool.
// Each rep times one pass of each way, adjacent and in alternating order;
// the speedups are medians of per-rep ratios. Results must be bit-identical
// across pool sizes {1, 2, 8} — checked here on every run, not just in the
// test suite. Each row also records the minor page faults per term of one
// more optimized pass, run serially on the calling thread once the reps have
// warmed the statevector buffer list (record only, no floor).
//
// Kernel section: amp-updates/sec and effective GB/s per kernel, plus the
// QFT-16 workload (h + cu1 + swap — the corpus QFT gate mix) applied with
// classified dispatch vs. the dense kernels, one pass of each per rep in
// alternating order; the median per-rep ratio is the pinned single-thread
// kernel win.
//
// SIMD tier section: the same kernels measured under each *forced* dispatch
// tier (scalar / AVX2) — a tier the build or CPU lacks is skipped with an
// explicit row. The AVX2 dense 1q/2q GB/s must be >= 2x scalar.
//
// Position section: each k <= 2 kernel family (1q dense, 1q diagonal, cx,
// cz, cu1, dense diagonal 2q, dense 2q) on a 16-qubit state with its target
// at the highest stride and at strides 16, 8, 4, 2 and 1, each row one fixed
// position (min over 15 round-robin batches of 12 applications). A family's
// slowest position must cost at most 3x one 1q-dense pass at the highest
// stride, as the median over batches of the per-batch ratio.
//
// Fusion section: an rz-ry-rz + cx-ladder workload applied unfused vs fused
// (fuse_circuit), with op counts, wall time, and an amplitude cross-check.
//
// Fusion crossover section (record only, no floor): per QPD term of planned
// GHZ-chain and brickwork splits at fragment widths 3-16, the fuse pass, the
// fused evaluation and the unfused evaluation, serially. The ratio column,
// (fuse + fused) / unfused, falls below 1 where fusion pays; it is what
// kMinFusionWidth (sim/fusion.hpp) is chosen from.
//
// Fan-out crossover section (record only, no floor): per planned QPD (GHZ
// chains of 8-24 qubits at 1-3 cuts, hwe-8 at cap 4, the NME hwe-8 at cap 6),
// its FragmentVariants work and one cold evaluation of its variants on a
// 1-worker pool against the same evaluation fanned out over 4 workers; it is
// what kMinFanoutWork (cut/fragment.hpp) is chosen from.
//
// Observability section: the QFT-16 kernels with metrics off vs on, timed on
// the thread's CPU clock; the median on/off ratio is gated at 2%.
//
// Output: aligned tables on stdout plus machine-readable sim_perf.json so
// future PRs have a perf trajectory to regress against. Acceptance floors
// (checked last, after the JSON is on disk): batched/serial >= 10x,
// fragment optimized/baseline >= 4x on a >= 4-thread pool, QFT-16
// classified/dense >= 1.5x, AVX2 dense kernels >= 2x scalar (when AVX2 is
// available), every kernel family's slowest position <= 3x the 1q-dense
// pass at the highest stride, fusion amplitude agreement, and every
// bit-identity invariant.
//
// Usage: bench_sim_perf [--serial-shots N] [--batched-shots N] [--threads N]
//                       [--out PATH] [--seed N]
// sim_perf.json defaults to the executable's directory (the build tree), so
// running from a source checkout leaves no stray file; --out (or the legacy
// --json) overrides the destination.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "../tests/bench_shapes.hpp"
#include "../tests/exact_oracles.hpp"
#include "../tests/pool_scope.hpp"
#include "qcut/common/cli.hpp"
#include "qcut/cut/fragment.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/obs/run_report.hpp"
#include "qcut/plan/planned_executor.hpp"
#include "qcut/sim/fusion.hpp"
#include "qcut/sim/gates.hpp"
#include "qcut/sim/qasm_import.hpp"
#include "qcut/sim/simd_dispatch.hpp"
#include "qcut/sim/statevector.hpp"

#ifndef QCUT_QASM_CORPUS_DIR
#define QCUT_QASM_CORPUS_DIR "tests/qasm_corpus"
#endif

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct BackendRow {
  std::string name;
  std::uint64_t shots = 0;
  std::size_t threads = 1;
  double seconds = 0.0;
  double shots_per_sec = 0.0;
  qcut::Real estimate = 0.0;
  std::uint64_t pool_tasks = 0;  ///< tasks the run submitted to its pool
};

/// Runs `plan` on `backend` with `pool` as the request pool (the engine's
/// one fan-out, the backend's prepare(), runs there; the draws inline).
BackendRow measure(const std::string& name, const qcut::Qpd& qpd, const qcut::ShotPlan& plan,
                   const qcut::ExecutionBackend& backend, qcut::ThreadPool& pool,
                   std::uint64_t seed) {
  BackendRow row;
  row.name = name;
  row.shots = plan.total_shots;
  row.threads = pool.size();
  const qcut::testing::ScopedPool scope(pool);
  const std::uint64_t tasks_before = pool.tasks_run();
  const auto start = Clock::now();
  const qcut::EstimationResult res = qcut::run_plan(qpd, plan, backend, seed);
  row.seconds = seconds_since(start);
  row.pool_tasks = pool.tasks_run() - tasks_before;
  row.shots_per_sec = row.seconds > 0.0 ? static_cast<double>(row.shots) / row.seconds : 0.0;
  row.estimate = res.estimate;
  return row;
}

struct KernelRow {
  std::string name;
  int qubits = 0;
  double amps_per_sec = 0.0;  ///< amplitude updates (touched amps) per second
  double gb_per_sec = 0.0;    ///< effective read+write traffic on touched amps
};

/// `touched_frac` is the fraction of the 2^n amplitudes the kernel touches
/// per application (1.0 for dense/diagonal, 0.5 for cx/swap moves, 0.25 for
/// the cu1 sparse phase); the forced GateClass selects the dispatch path
/// (nullptr = classify once per gate like the circuit builder does).
KernelRow measure_kernel(const std::string& name, int n, const qcut::Matrix& u,
                         const std::vector<int>& qubits_step, int reps, double touched_frac,
                         const qcut::GateClass* forced) {
  qcut::Rng rng(17);
  qcut::Statevector sv(n, qcut::random_statevector(qcut::Index{1} << n, rng));
  const qcut::GateClass cls = forced != nullptr ? *forced : qcut::classify_gate(u);
  const auto start = Clock::now();
  for (int r = 0; r < reps; ++r) {
    std::vector<int> qs = qubits_step;
    for (auto& q : qs) {
      q = (q + r) % n;
    }
    sv.apply(u, qs, cls);
  }
  const double secs = seconds_since(start);
  const double touched =
      static_cast<double>(reps) * touched_frac * static_cast<double>(qcut::Index{1} << n);
  KernelRow row;
  row.name = name;
  row.qubits = n;
  row.amps_per_sec = secs > 0.0 ? touched / secs : 0.0;
  // One complex read + one complex write per touched amplitude.
  row.gb_per_sec = row.amps_per_sec * 2.0 * sizeof(qcut::Cplx) / 1e9;
  return row;
}

// ---- fragment-path section --------------------------------------------------

/// The serial baseline runs on circuits with the gate classification
/// stripped: the pre-classification dense kernels are what PR 3 executed.
qcut::Qpd strip_classification(const qcut::Qpd& qpd) {
  qcut::Qpd out;
  for (const qcut::QpdTerm& t : qpd.terms()) {
    qcut::QpdTerm nt = t;
    qcut::Circuit c(t.circuit.n_qubits(), t.circuit.n_cbits());
    for (qcut::Operation op : t.circuit.ops()) {
      if (op.kind == qcut::OpKind::kUnitary || op.kind == qcut::OpKind::kCondUnitary) {
        op.set_gate(op.matrix(), qcut::GateClass{});
      }
      c.push_op(std::move(op));
    }
    nt.circuit = std::move(c);
    out.add(std::move(nt));
  }
  return out;
}

struct FragmentRow {
  std::string name;
  std::size_t terms = 0;
  std::size_t cuts = 0;
  int max_fragment_width = 0;
  bool has_baseline = true;
  double serial_seconds = 0.0;
  double optimized_seconds = 0.0;
  double serial_terms_per_sec = 0.0;
  double optimized_terms_per_sec = 0.0;
  double speedup = 0.0;  ///< median over reps of baseline/optimized
  /// Per rep: one baseline pass and one optimized pass over every term.
  std::vector<double> serial_pass_seconds;
  std::vector<double> optimized_pass_seconds;
  double warm_minor_faults_per_term = 0.0;
  bool ok = false;
  std::string error;
};

qcut::Circuit ghz_line(int n) {
  qcut::Circuit c(n, 0);
  c.h(0);
  for (int q = 0; q + 1 < n; ++q) {
    c.cx(q, q + 1);
  }
  return c;
}

/// Minor page faults of the calling thread so far (0 where the platform has
/// no per-thread count).
long thread_minor_faults() {
#ifdef RUSAGE_THREAD
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_minflt;
#else
  return 0;
#endif
}

/// Median of `v` (by copy; v non-empty).
double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

/// Each rep times one baseline pass and one optimized pass over every term,
/// adjacent, the side that runs first alternating from rep to rep; the row's
/// speedup is the median of the per-rep baseline/optimized ratios. A slow
/// spell on a shared host then lands inside one rep's ratio, or on one side
/// of a few, instead of on a whole block of one side.
///
/// `with_baseline = false` skips the PR-3 yardstick: workloads whose generic
/// entangled states defeat branch pruning (wide_30_brickwork) make the old
/// per-measure branch enumeration exponential — literally intractable, which
/// is the point of the trailing-measure fold. Those rows report optimized
/// throughput only and stay out of the aggregate speedup.
FragmentRow measure_fragment_workload(const std::string& name, const qcut::Circuit& circ,
                                      int width_cap, qcut::ThreadPool& pool, int reps,
                                      bool with_baseline = true) {
  FragmentRow row;
  row.name = name;
  row.has_baseline = with_baseline;
  try {
    qcut::PlannerConfig pcfg;
    pcfg.max_fragment_width = width_cap;
    pcfg.pair_budget = 0;  // entanglement-free protocols → fully splittable terms
    const qcut::CutPlanner planner(circ, pcfg);
    const qcut::CutPlan plan = planner.plan();
    const qcut::PlannedExecutor exec(circ, plan);
    const qcut::Qpd qpd =
        exec.build_qpd(qcut::Observable::z_all(circ.n_qubits()));
    row.terms = qpd.size();
    row.cuts = plan.cuts.size();
    row.max_fragment_width = plan.max_width;
    const double work = static_cast<double>(reps) * static_cast<double>(qpd.size());

    const qcut::Qpd stripped = with_baseline ? strip_classification(qpd) : qcut::Qpd{};
    qcut::Real acc_base = 0.0;
    qcut::Real acc_opt = 0.0;
    const auto baseline_pass = [&] {
      const auto t0 = Clock::now();
      for (const qcut::QpdTerm& t : stripped.terms()) {
        acc_base += qcut::testing::fragment_term_prob_one_baseline(qcut::split_term(t));
      }
      row.serial_pass_seconds.push_back(seconds_since(t0));
    };
    const auto optimized_pass = [&] {
      const auto t0 = Clock::now();
      const qcut::BatchedBranchBackend backend(qpd);
      {
        const qcut::testing::ScopedPool scope(pool);
        backend.prepare();
      }
      for (std::size_t i = 0; i < qpd.size(); ++i) {
        acc_opt += backend.cache().prob_one(i);
      }
      row.optimized_pass_seconds.push_back(seconds_since(t0));
    };
    std::vector<double> ratios;
    for (int r = 0; r < reps; ++r) {
      if (!with_baseline) {
        optimized_pass();
        continue;
      }
      if (r % 2 == 0) {
        baseline_pass();
        optimized_pass();
      } else {
        optimized_pass();
        baseline_pass();
      }
      const double opt = row.optimized_pass_seconds.back();
      ratios.push_back(opt > 0.0 ? row.serial_pass_seconds.back() / opt : 0.0);
    }
    {
      // A one-worker pool runs the evaluation inline, on this thread.
      qcut::ThreadPool one(1);
      const qcut::testing::ScopedPool scope(one);
      const qcut::BatchedBranchBackend backend(qpd);
      const long before = thread_minor_faults();
      for (std::size_t i = 0; i < qpd.size(); ++i) {
        (void)backend.cache().prob_one(i);
      }
      row.warm_minor_faults_per_term =
          static_cast<double>(thread_minor_faults() - before) / static_cast<double>(qpd.size());
    }
    const auto sum = [](const std::vector<double>& v) {
      return std::accumulate(v.begin(), v.end(), 0.0);
    };
    row.serial_seconds = sum(row.serial_pass_seconds);
    row.serial_terms_per_sec = row.serial_seconds > 0.0 ? work / row.serial_seconds : 0.0;
    row.optimized_seconds = sum(row.optimized_pass_seconds);
    row.optimized_terms_per_sec =
        row.optimized_seconds > 0.0 ? work / row.optimized_seconds : 0.0;

    row.ok = true;
    if (with_baseline) {
      row.speedup = median(ratios);
      // The two evaluators must agree (they are pinned to 1e-12 per term in
      // the test suite; this is a cheap cross-check against silent drift).
      row.ok = std::abs(acc_base - acc_opt) <= 1e-9 * work;
      if (!row.ok) {
        row.error = "baseline/optimized probability drift";
      }
    }
  } catch (const std::exception& e) {
    row.ok = false;
    row.error = e.what();
  }
  return row;
}

/// Forces every term's fragment probability across a pool of the given size
/// and returns the exact per-term vector.
std::vector<qcut::Real> fragment_probs_with_pool(const qcut::Qpd& qpd, std::size_t pool_size) {
  qcut::ThreadPool pool(pool_size);
  return qcut::testing::fanned_out_prob_one(qpd, pool);
}

// ---- QFT kernel workload ----------------------------------------------------

qcut::Circuit build_qft(int n) {
  qcut::Circuit c(n, 0);
  for (int j = 0; j < n; ++j) {
    c.h(j);
    for (int k = j + 1; k < n; ++k) {
      const qcut::Real lam = qcut::kPi / static_cast<qcut::Real>(qcut::Index{1} << (k - j));
      c.gate(qcut::gates::controlled(qcut::gates::phase(lam)), {k, j}, "CU1");
    }
  }
  for (int j = 0; j < n / 2; ++j) {
    c.swap_gate(j, n - 1 - j);
  }
  return c;
}

struct QftKernelResult {
  int qubits = 0;
  std::size_t ops = 0;
  int reps = 0;
  double dense_seconds = 0.0;       ///< summed over reps
  double classified_seconds = 0.0;  ///< summed over reps
  double speedup = 0.0;             ///< median over reps of dense/classified
};

/// One QFT pass per kernel set per rep, dense and classified adjacent, the
/// side that runs first alternating from rep to rep; the speedup is the
/// median of the per-rep dense/classified ratios. A slow spell on a shared
/// host then lands inside one rep's ratio, or on one side of a few, instead
/// of on a whole block of one side.
QftKernelResult measure_qft_kernels(int n, int reps) {
  const qcut::Circuit qft = build_qft(n);
  qcut::Rng rng(23);
  QftKernelResult res;
  res.qubits = n;
  res.ops = qft.size();
  res.reps = reps;

  const qcut::GateClass dense{};  // forces the dense kernels
  qcut::Statevector sv_dense(n, qcut::random_statevector(qcut::Index{1} << n, rng));
  qcut::Statevector sv_classified(n, qcut::random_statevector(qcut::Index{1} << n, rng));
  const auto timed_pass = [&qft, &dense](qcut::Statevector& sv, bool classified) {
    const auto t0 = Clock::now();
    for (const qcut::Operation& op : qft.ops()) {
      sv.apply(op.matrix(), op.qubits, classified ? op.gclass() : dense);
    }
    return seconds_since(t0);
  };
  std::vector<double> ratios;
  for (int r = 0; r < reps; ++r) {
    double d = 0.0, c = 0.0;
    for (const bool classified : {r % 2 == 1, r % 2 == 0}) {
      (classified ? c : d) = timed_pass(classified ? sv_classified : sv_dense, classified);
    }
    res.dense_seconds += d;
    res.classified_seconds += c;
    ratios.push_back(c > 0.0 ? d / c : 0.0);
  }
  res.speedup = median(ratios);
  return res;
}

// ---- SIMD tier section ------------------------------------------------------

struct TierKernelRow {
  std::string tier;
  std::string kernel;
  int qubits = 0;
  double gb_per_sec = 0.0;
};

// ---- per-position kernel section ---------------------------------------------

/// Target strides of the per-position rows on a 16-qubit state, as bit
/// positions: the highest (qubit 0) and the five lowest.
constexpr int kPositionQubits = 16;
constexpr int kPositionBits[] = {kPositionQubits - 1, 4, 3, 2, 1, 0};

struct PositionRow {
  std::string family;
  qcut::Index stride = 0;     ///< the target qubit's stride
  std::vector<int> qubits;    ///< operands as applied (target last for 2q)
  double us_per_op = 0.0;     ///< min over batches of the mean per application
  std::vector<double> batch_us;  ///< each batch's mean per application
};

struct PositionFamily {
  const char* name;
  qcut::Matrix u;
  int k;
};

/// Every k <= 2 kernel family at each position of kPositionBits: a 1q
/// family targets the qubit with that stride; a 2q family pairs it with its
/// neighbour one stride up (qubit 1 for the top position), target last. Each
/// row is the min over kPositionBatches of the mean of kPositionReps
/// applications at one fixed position, and keeps every batch's mean. The
/// batches run round-robin over all rows, so a slow spell on a shared host
/// lands on every row of a batch alike instead of on whichever family was
/// being timed, and cancels in that batch's ratios.
constexpr int kPositionBatches = 15;
constexpr int kPositionReps = 12;

std::vector<PositionRow> measure_positions(const std::vector<PositionFamily>& families) {
  qcut::Rng rng(37);
  qcut::Statevector sv(kPositionQubits,
                       qcut::random_statevector(qcut::Index{1} << kPositionQubits, rng));
  std::vector<PositionRow> rows;
  std::vector<const PositionFamily*> row_family;
  for (const PositionFamily& fam : families) {
    for (const int bit : kPositionBits) {
      const int target = kPositionQubits - 1 - bit;
      PositionRow row;
      row.family = fam.name;
      row.stride = qcut::Index{1} << bit;
      if (fam.k == 2) {
        row.qubits.push_back(target == 0 ? 1 : target - 1);
      }
      row.qubits.push_back(target);
      rows.push_back(row);
      row_family.push_back(&fam);
    }
  }
  for (int b = 0; b < kPositionBatches; ++b) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const qcut::Matrix& u = row_family[i]->u;
      const qcut::GateClass cls = qcut::classify_gate(u);
      const qcut::QubitList qs(rows[i].qubits);
      const auto t0 = Clock::now();
      for (int r = 0; r < kPositionReps; ++r) {
        sv.apply(u, qs, cls);
      }
      const double us = 1e6 * seconds_since(t0) / kPositionReps;
      if (b == 0 || us < rows[i].us_per_op) rows[i].us_per_op = us;
      rows[i].batch_us.push_back(us);
    }
  }
  return rows;
}

// ---- fusion A/B section -----------------------------------------------------

struct FusionBench {
  int qubits = 0;
  std::size_t ops_before = 0;
  std::size_t ops_after = 0;
  std::size_t fused_1q = 0;
  double unfused_seconds = 0.0;
  double fused_seconds = 0.0;
  double speedup = 0.0;
  double max_amp_diff = 0.0;
};

/// rz-ry-rz Euler layers (the fusable run shape every variational ansatz
/// emits) interleaved with a brickwork cx ladder: pass 1 composes each wire's
/// three rotations into one 2x2 per layer.
FusionBench measure_fusion(int n, int layers, int reps) {
  qcut::Rng rng(29);
  qcut::Circuit c(n, 0);
  for (int l = 0; l < layers; ++l) {
    for (int q = 0; q < n; ++q) {
      c.rz(q, rng.uniform(0.0, 2.0 * qcut::kPi));
      c.ry(q, rng.uniform(0.0, 2.0 * qcut::kPi));
      c.rz(q, rng.uniform(0.0, 2.0 * qcut::kPi));
    }
    for (int q = l % 2; q + 1 < n; q += 2) {
      c.cx(q, q + 1);
    }
  }
  FusionBench res;
  res.qubits = n;
  qcut::FusionStats stats;
  const qcut::Circuit fused = qcut::fuse_circuit(c, &stats);
  res.ops_before = stats.ops_before;
  res.ops_after = stats.ops_after;
  res.fused_1q = stats.fused_1q;

  const qcut::Vector init = qcut::random_statevector(qcut::Index{1} << n, rng);
  qcut::Statevector a(n, init);
  auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    for (const qcut::Operation& op : c.ops()) {
      a.apply(op.matrix(), op.qubits, op.gclass());
    }
  }
  res.unfused_seconds = seconds_since(t0);

  qcut::Statevector b(n, init);
  t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    for (const qcut::Operation& op : fused.ops()) {
      b.apply(op.matrix(), op.qubits, op.gclass());
    }
  }
  res.fused_seconds = seconds_since(t0);
  res.speedup = res.fused_seconds > 0.0 ? res.unfused_seconds / res.fused_seconds : 0.0;

  for (std::size_t i = 0; i < a.amplitudes().size(); ++i) {
    res.max_amp_diff =
        std::max(res.max_amp_diff, std::abs(a.amplitudes()[i] - b.amplitudes()[i]));
  }
  return res;
}

// ---- fusion crossover section -----------------------------------------------

/// Planner caps of the crossover rows: each row's planned split has
/// fragments of about this many qubits.
constexpr int kCrossoverWidths[] = {3, 4, 6, 8, 10, 12, 14, 16};
constexpr int kCrossoverBatches = 15;

struct CrossoverRow {
  std::string shape;
  int width = 0;             ///< widest fragment of the planned split
  std::size_t terms = 0;
  int reps = 1;              ///< passes over the terms per batch
  double fuse_us = 0.0;      ///< per term: fuse_split_circuits
  double fused_us = 0.0;     ///< per term: fragment_term_prob_one on the fused split
  double unfused_us = 0.0;   ///< per term: fragment_term_prob_one on the plain split
  std::vector<qcut::FragmentSplit> splits;  ///< one per term, unfused
  std::vector<qcut::FragmentSplit> fused;   ///< one per term
};

/// The two fragment shapes qbench's cut requests produce, on 2w - 1 qubits:
/// a GHZ chain (h and ry on qubit 0, then a cx line) and the ry / cz-even /
/// rz / cz-odd brickwork.
qcut::Circuit crossover_circuit(bool brickwork, int n, qcut::Rng& rng) {
  qcut::Circuit c(n, 0);
  if (!brickwork) {
    c.h(0).ry(0, rng.uniform(-qcut::kPi, qcut::kPi));
    for (int q = 0; q + 1 < n; ++q) {
      c.cx(q, q + 1);
    }
    return c;
  }
  for (int q = 0; q < n; ++q) {
    c.ry(q, rng.uniform(-qcut::kPi / 3, qcut::kPi / 3));
  }
  for (int q = 0; q + 1 < n; q += 2) {
    c.cz(q, q + 1);
  }
  for (int q = 0; q < n; ++q) {
    c.rz(q, rng.uniform(-qcut::kPi, qcut::kPi));
  }
  for (int q = 1; q + 1 < n; q += 2) {
    c.cz(q, q + 1);
  }
  return c;
}

/// Per-term cost of fusing a planned split against the evaluation time it
/// saves, serially (no pool), at each width of kCrossoverWidths for both
/// shapes. Each batch times `reps` passes over the row's terms, with `reps`
/// sized so one pass set lasts at least about 200 us; the rows run
/// round-robin over kCrossoverBatches batches and each figure is the min
/// over batches of the per-term mean, as in the position rows.
std::vector<CrossoverRow> measure_fusion_crossover() {
  qcut::Rng rng(43);
  std::vector<CrossoverRow> rows;
  for (const bool brickwork : {false, true}) {
    for (const int cap : kCrossoverWidths) {
      const qcut::Circuit circ = crossover_circuit(brickwork, 2 * cap - 1, rng);
      qcut::PlannerConfig pcfg;
      pcfg.max_fragment_width = cap;
      pcfg.pair_budget = 0;
      const qcut::PlannedExecutor exec(circ, qcut::CutPlanner(circ, pcfg).plan());
      const qcut::Qpd qpd =
          exec.build_qpd(qcut::Observable::z_all(circ.n_qubits()));
      CrossoverRow row;
      row.shape = brickwork ? "brickwork" : "ghz";
      row.terms = qpd.size();
      for (const qcut::QpdTerm& t : qpd.terms()) {
        row.splits.push_back(qcut::split_term(t));
        row.width = std::max(row.width, row.splits.back().max_width);
        row.fused.push_back(row.splits.back());
        qcut::fuse_split_circuits(row.fused.back());
      }
      const auto t0 = Clock::now();
      for (const qcut::FragmentSplit& s : row.splits) {
        (void)qcut::fragment_term_prob_one(s);
      }
      const double pass_s = seconds_since(t0);
      row.reps = std::clamp(static_cast<int>(200e-6 / std::max(pass_s, 1e-9)) + 1, 1, 64);
      rows.push_back(std::move(row));
    }
  }
  const auto time_evals = [](const std::vector<qcut::FragmentSplit>& splits, int reps) {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      for (const qcut::FragmentSplit& s : splits) {
        (void)qcut::fragment_term_prob_one(s);
      }
    }
    return seconds_since(t0);
  };
  for (int b = 0; b < kCrossoverBatches; ++b) {
    for (CrossoverRow& row : rows) {
      const double per_term = 1e6 / (static_cast<double>(row.reps) * row.terms);
      std::vector<qcut::FragmentSplit> copies;
      for (int r = 0; r < row.reps; ++r) {
        copies.insert(copies.end(), row.splits.begin(), row.splits.end());
      }
      const auto t0 = Clock::now();
      for (qcut::FragmentSplit& s : copies) {
        qcut::fuse_split_circuits(s);
      }
      const double fuse = per_term * seconds_since(t0);
      // Alternate which evaluation runs first so neither always pays a cold
      // cache after the fuse pass.
      double fused = 0.0, unfused = 0.0;
      if (b % 2 == 0) {
        fused = per_term * time_evals(row.fused, row.reps);
        unfused = per_term * time_evals(row.splits, row.reps);
      } else {
        unfused = per_term * time_evals(row.splits, row.reps);
        fused = per_term * time_evals(row.fused, row.reps);
      }
      if (b == 0 || fuse < row.fuse_us) row.fuse_us = fuse;
      if (b == 0 || fused < row.fused_us) row.fused_us = fused;
      if (b == 0 || unfused < row.unfused_us) row.unfused_us = unfused;
    }
  }
  return rows;
}

// ---- fan-out crossover section ----------------------------------------------

struct FanoutRow {
  std::string name;
  int qubits = 0;
  std::size_t cuts = 0;
  std::size_t terms = 0;
  std::size_t variants = 0;
  double work = 0.0;       ///< FragmentVariants::work(), what fanout_pays reads
  int reps = 1;            ///< cold evaluations per side per batch
  double inline_us = 0.0;  ///< per cold evaluation on a 1-worker pool
  double pooled_us = 0.0;  ///< per cold evaluation spread over a 4-worker pool
  qcut::Qpd qpd;
};

constexpr int kFanoutBatches = 15;

/// The request path's factored QPD of `circ` planned at `cap` with
/// `pairs` entangled pairs at `overlap`, as one row.
FanoutRow fanout_row(std::string name, const qcut::Circuit& circ, int cap, int pairs,
                     qcut::Real overlap) {
  qcut::PlannerConfig pcfg;
  pcfg.max_fragment_width = cap;
  pcfg.pair_budget = pairs;
  pcfg.resource_overlap = overlap;
  const qcut::PlannedExecutor exec(circ, qcut::CutPlanner(circ, pcfg).plan());
  FanoutRow row;
  row.name = std::move(name);
  row.qubits = circ.n_qubits();
  row.cuts = exec.plan().cuts.size();
  row.qpd = exec.qpd_for(qcut::Observable::z_all(circ.n_qubits()),
                         qcut::BackendKind::kBatchedBranch);
  row.terms = row.qpd.size();
  const qcut::FragmentVariants variants(row.qpd);
  row.variants = variants.size();
  row.work = variants.work();
  return row;
}

/// One cold evaluation of every fragment variant, as a cold prepare() runs
/// it, against the same evaluation fanned out over four workers: planned GHZ
/// chains of 8-16 qubits at 1-3 cuts, hwe-8 at cap 4, the paper's NME hwe-8
/// at cap 6 with 2 pairs at overlap 0.9, and GHZ chains of 20 and 24 qubits
/// to bracket the crossover from above. Each batch times `reps` cold
/// evaluations per side, sized so a side lasts at least about 300 us, with
/// the side that runs first alternating; each figure is the median over
/// kFanoutBatches batches of the per-evaluation mean. Where the 1-worker
/// time falls below the 4-worker time, fanning out does not pay; the row is
/// what kMinFanoutWork (cut/fragment.hpp) is chosen from.
std::vector<FanoutRow> measure_fanout_crossover() {
  qcut::Rng rng(47);
  std::vector<FanoutRow> rows;
  for (const int n : {8, 10, 12, 14, 16, 20, 24}) {
    int last_cap = 0;
    for (const int cuts : {1, 2, 3}) {
      const int cap = (n + cuts + cuts) / (cuts + 1);  // ceil((n + cuts) / (cuts + 1))
      if (cap == last_cap) {
        continue;  // the same plan as the row before (GHZ-10 at 2 and 3 cuts)
      }
      last_cap = cap;
      rows.push_back(fanout_row("ghz" + std::to_string(n) + "_cap" + std::to_string(cap),
                                crossover_circuit(false, n, rng), cap, 0, 0.5));
    }
  }
  const qcut::Circuit hwe = qcut::import_qasm(
      qcut::testing::bench_shape_qasm(qcut::testing::BenchShape::kHwe8), "<hwe8>");
  rows.push_back(fanout_row("hwe8_cap4", hwe, 4, 0, 0.5));
  rows.push_back(fanout_row("hwe8_cap6_nme", hwe, 6, 2, 0.9));

  qcut::ThreadPool one(1), four(4);
  const auto time_side = [](const qcut::Qpd& qpd, qcut::ThreadPool& pool, int reps) {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      (void)qcut::testing::fanned_out_prob_one(qpd, pool);
    }
    return seconds_since(t0);
  };
  for (FanoutRow& row : rows) {
    row.reps = std::clamp(static_cast<int>(300e-6 / std::max(time_side(row.qpd, one, 1), 1e-9)) + 1,
                          1, 256);
  }
  std::vector<std::vector<double>> inline_us(rows.size()), pooled_us(rows.size());
  for (int b = 0; b < kFanoutBatches; ++b) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      FanoutRow& row = rows[i];
      const double per_eval = 1e6 / row.reps;
      for (const bool pooled : {b % 2 == 0, b % 2 != 0}) {
        (pooled ? pooled_us : inline_us)[i].push_back(
            per_eval * time_side(row.qpd, pooled ? four : one, row.reps));
      }
    }
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].inline_us = median(inline_us[i]);
    rows[i].pooled_us = median(pooled_us[i]);
  }
  std::sort(rows.begin(), rows.end(),
            [](const FanoutRow& a, const FanoutRow& b) { return a.work < b.work; });
  return rows;
}

// ---- observability overhead section -----------------------------------------

struct ObsOverheadBench {
  int qubits = 0;
  std::size_t ops = 0;
  int pairs = 0;             ///< rep pairs: one off-first and one on-first rep each
  int passes = 0;            ///< QFT passes per timed sample
  double off_seconds = 0.0;  ///< best sample, metrics disabled (thread CPU seconds)
  double on_seconds = 0.0;   ///< best sample, metrics enabled (thread CPU seconds)
  double overhead_frac = 0.0;  ///< median over pairs of the pair's on/off ratio - 1
};

/// CPU seconds the calling thread has run: unlike wall time, it does not
/// count the time another process holds the CPU.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Times the QFT classified-kernel workload with the metrics registry off vs
/// on, one sample of each per rep, on the thread's CPU clock (the QFT-16
/// sweeps run below the parallel threshold, on this thread). Reps come in adjacent pairs: the first
/// rep of a pair times its off sample first, the second its on sample
/// first. A pair's ratio is the geometric mean of its two reps' on/off
/// ratios, so an order effect (the second sample of a rep running faster or
/// slower than the first) cancels inside each pair, and frequency drift
/// between pairs cancels inside each rep. The overhead is the median over
/// pairs: one slow sample moves it by at most one rank.
/// The enabled cost (one relaxed fetch_add per Statevector::apply) upper
/// bounds the disabled cost (one relaxed load + branch), so gating the
/// enabled/disabled ratio at <= 2% proves the "compiled in but disabled"
/// budget with margin. Each sample times `passes` QFT passes: one pass of
/// the block-granular kernels takes about 2 ms, and 4 passes give samples of
/// the 7–9 ms one pass took when the 2% ceiling was set.
ObsOverheadBench measure_obs_overhead(int n, int pairs, int passes) {
  const qcut::Circuit qft = build_qft(n);
  qcut::Rng rng(31);
  ObsOverheadBench res;
  res.qubits = n;
  res.ops = qft.size();
  res.pairs = pairs;
  res.passes = passes;
  qcut::Statevector sv(n, qcut::random_statevector(qcut::Index{1} << n, rng));

  const auto timed_passes = [&]() {
    const double t0 = thread_cpu_seconds();
    for (int p = 0; p < passes; ++p) {
      for (const qcut::Operation& op : qft.ops()) {
        sv.apply(op.matrix(), op.qubits, op.gclass());
      }
    }
    return thread_cpu_seconds() - t0;
  };
  const bool was_enabled = qcut::obs::metrics_enabled();
  double best_off = std::numeric_limits<double>::infinity();
  double best_on = best_off;
  std::vector<double> ratios;
  for (int pr = 0; pr < pairs; ++pr) {
    double log_ratio = 0.0;
    for (const bool on_first : {false, true}) {
      double on = 0.0, off = 0.0;
      for (const bool enabled : {on_first, !on_first}) {
        qcut::obs::set_metrics_enabled(enabled);
        (enabled ? on : off) = timed_passes();
      }
      best_off = std::min(best_off, off);
      best_on = std::min(best_on, on);
      log_ratio += off > 0.0 && on > 0.0 ? std::log(on / off) : 0.0;
    }
    ratios.push_back(std::exp(log_ratio / 2.0));
  }
  qcut::obs::set_metrics_enabled(was_enabled);

  res.off_seconds = best_off;
  res.on_seconds = best_on;
  res.overhead_frac = median(ratios) - 1.0;
  return res;
}

std::string json_bool(bool b) { return b ? "true" : "false"; }

}  // namespace

int main(int argc, char** argv) {
  // Line-buffered stdout even when redirected: this binary is a CI gate, and
  // a hung or killed run must leave its progress in the log.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  qcut::Cli cli(argc, argv);
  const std::uint64_t serial_shots = static_cast<std::uint64_t>(cli.get_int("serial-shots", 20000));
  const std::uint64_t batched_shots =
      static_cast<std::uint64_t>(cli.get_int("batched-shots", 2000000));
  const std::size_t threads = static_cast<std::size_t>(cli.get_int("threads", 4));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const std::string json_path = cli.output_path("json", "sim_perf.json");

  // The Theorem-2 workload of the paper's experiment.
  qcut::Rng setup_rng(3);
  const qcut::NmeCut proto(0.6);
  const qcut::CutInput input{qcut::haar_unitary(2, setup_rng), 'Z'};
  const qcut::Qpd qpd = proto.build_qpd(input);

  std::printf("=== Engine perf: NmeCut(0.6) workload, %zu QPD terms ===\n\n", qpd.size());
  std::printf("%-16s %12s %8s %12s %16s %10s\n", "backend", "shots", "threads", "seconds",
              "shots/sec", "pool tasks");

  std::vector<BackendRow> rows;
  qcut::ThreadPool pool1(1), poolN(threads);

  {
    const qcut::SerialShotBackend serial(qpd);
    const auto plan = qcut::ShotPlan::allocated(qpd, serial_shots, qcut::AllocRule::kProportional);
    rows.push_back(measure("serial", qpd, plan, serial, pool1, seed));
    rows.push_back(measure("parallel-serial", qpd, plan, serial, poolN, seed));
  }
  {
    const qcut::BatchedBranchBackend batched(qpd);
    // Prewarm: force the one-time branch enumeration out of the timed region
    // so the batched and parallel rows measure steady-state sampling cost
    // symmetrically (the JSON is a perf trajectory — keep it unbiased).
    batched.cache().all_prob_one();
    const auto plan = qcut::ShotPlan::allocated(qpd, batched_shots, qcut::AllocRule::kProportional);
    rows.push_back(measure("batched", qpd, plan, batched, pool1, seed));
    rows.push_back(measure("parallel", qpd, plan, batched, poolN, seed));
  }

  for (const auto& r : rows) {
    std::printf("%-16s %12llu %8zu %12.4f %16.0f %10llu\n", r.name.c_str(),
                static_cast<unsigned long long>(r.shots), r.threads, r.seconds, r.shots_per_sec,
                static_cast<unsigned long long>(r.pool_tasks));
  }

  const double speedup = rows[0].shots_per_sec > 0.0
                             ? rows[2].shots_per_sec / rows[0].shots_per_sec
                             : 0.0;
  std::printf("\nspeedup batched/serial: %.1fx (acceptance floor: 10x)\n", speedup);

  // ---- fragment-path throughput --------------------------------------------
  std::printf("\n=== Fragment-path throughput (serial PR-3 baseline vs optimized, %zu threads) ===\n",
              poolN.size());
  std::printf("%-24s %6s %5s %6s %14s %14s %9s %12s\n", "workload", "terms", "cuts", "width",
              "base terms/s", "opt terms/s", "speedup", "faults/term");

  // Every row with a baseline runs kFragmentReps reps; rep r of the
  // aggregate sums every such row's rep-r passes, and the aggregate speedup
  // is the median of those per-rep ratios.
  constexpr int kFragmentReps = 9;
  std::vector<FragmentRow> frag_rows;
  bool fragment_workloads_ok = true;
  std::vector<double> frag_serial_by_rep(kFragmentReps, 0.0);
  std::vector<double> frag_opt_by_rep(kFragmentReps, 0.0);
  const auto report_row = [&](FragmentRow fr) {
    if (!fr.ok) {
      fragment_workloads_ok = false;
      std::printf("%-24s FAILED: %s\n", fr.name.c_str(), fr.error.c_str());
    } else if (fr.has_baseline) {
      for (std::size_t r = 0; r < frag_serial_by_rep.size(); ++r) {
        frag_serial_by_rep[r] += fr.serial_pass_seconds[r];
        frag_opt_by_rep[r] += fr.optimized_pass_seconds[r];
      }
      std::printf("%-24s %6zu %5zu %6d %14.1f %14.1f %8.2fx %12.1f\n", fr.name.c_str(),
                  fr.terms, fr.cuts, fr.max_fragment_width, fr.serial_terms_per_sec,
                  fr.optimized_terms_per_sec, fr.speedup, fr.warm_minor_faults_per_term);
    } else {
      std::printf("%-24s %6zu %5zu %6d %14s %14.1f %9s %12.1f\n", fr.name.c_str(), fr.terms,
                  fr.cuts, fr.max_fragment_width, "intractable", fr.optimized_terms_per_sec, "n/a",
                  fr.warm_minor_faults_per_term);
    }
    frag_rows.push_back(std::move(fr));
  };
  report_row(measure_fragment_workload("planned-ghz-30", ghz_line(30), /*width_cap=*/12, poolN,
                                      kFragmentReps));
  const auto corpus_workload = [&](const std::string& name, const char* file, int cap, int reps,
                                   bool with_baseline) {
    try {
      const qcut::Circuit c = qcut::strip_trailing_measurements(
          qcut::import_qasm_file(std::string(QCUT_QASM_CORPUS_DIR) + "/" + file));
      report_row(measure_fragment_workload(name, c, cap, poolN, reps, with_baseline));
    } catch (const std::exception& e) {
      FragmentRow fr;
      fr.name = name;
      fr.error = e.what();
      report_row(std::move(fr));
    }
  };
  corpus_workload("qasm-ghz-30-wide", "ghz_30_wide.qasm", 16, kFragmentReps, true);
  corpus_workload("qasm-hwe-ansatz-8", "hwe_ansatz_8.qasm", 5, kFragmentReps, true);
  // Optimized-only showcase: the pre-PR-5 enumeration is exponential in the
  // trailing measures of this workload's entangled 16-wide fragments (the
  // serial baseline does not terminate in useful time — by design, that cost
  // is what the trailing-measure fold removed).
  corpus_workload("qasm-wide-30-brickwork", "wide_30_brickwork.qasm", 16, 3, false);

  std::vector<double> frag_ratios;
  for (std::size_t r = 0; r < frag_opt_by_rep.size(); ++r) {
    const double opt = frag_opt_by_rep[r];
    frag_ratios.push_back(opt > 0.0 ? frag_serial_by_rep[r] / opt : 0.0);
  }
  const double frag_speedup = median(frag_ratios);
  std::printf("\nfragment-path speedup (aggregate, median of %d per-rep ratios): %.1fx "
              "(floor: 4x on >= 4 threads)\n",
              kFragmentReps, frag_speedup);

  // Bit-identity across pool sizes {1, 2, 8}: per-term probabilities and
  // end-to-end engine estimates must match exactly, not approximately.
  bool frag_bit_identical = true;
  {
    qcut::PlannerConfig pcfg;
    pcfg.max_fragment_width = 12;
    pcfg.pair_budget = 0;
    const qcut::Circuit circ = ghz_line(30);
    const qcut::CutPlanner planner(circ, pcfg);
    const qcut::PlannedExecutor exec(circ, planner.plan());
    const qcut::Qpd wide_qpd = exec.build_qpd(qcut::Observable::z_all(30));
    const std::vector<qcut::Real> p1 = fragment_probs_with_pool(wide_qpd, 1);
    const std::vector<qcut::Real> p2 = fragment_probs_with_pool(wide_qpd, 2);
    const std::vector<qcut::Real> p8 = fragment_probs_with_pool(wide_qpd, 8);
    frag_bit_identical = p1 == p2 && p1 == p8;
    qcut::Real est1 = 0.0, est2 = 0.0, est8 = 0.0;
    for (const std::size_t n_threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      qcut::ThreadPool pool(n_threads);
      const qcut::testing::ScopedPool scope(pool);
      const qcut::BatchedBranchBackend backend(wide_qpd);
      const auto plan =
          qcut::ShotPlan::allocated(wide_qpd, 200000, qcut::AllocRule::kProportional);
      const qcut::Real est = qcut::run_plan(wide_qpd, plan, backend, seed).estimate;
      (n_threads == 1 ? est1 : n_threads == 2 ? est2 : est8) = est;
    }
    frag_bit_identical = frag_bit_identical && est1 == est2 && est1 == est8;
    std::printf("fragment results bit-identical across pools {1, 2, 8}: %s\n",
                frag_bit_identical ? "yes" : "NO");
  }

  // ---- statevector kernels -------------------------------------------------
  std::printf("\n=== Statevector kernel throughput ===\n");
  std::printf("%-18s %8s %18s %10s\n", "kernel", "qubits", "amp-updates/sec", "GB/s");
  const qcut::GateClass dense{};
  std::vector<KernelRow> kernels;
  for (int n : {8, 12, 16}) {
    kernels.push_back(measure_kernel("1q-hadamard", n, qcut::gates::h(), {0}, 2000, 1.0, nullptr));
  }
  for (int n : {8, 12, 16}) {
    kernels.push_back(
        measure_kernel("1q-rz-diag", n, qcut::gates::rz(0.7), {0}, 2000, 1.0, nullptr));
  }
  for (int n : {8, 12, 16}) {
    kernels.push_back(
        measure_kernel("2q-cnot-dense", n, qcut::gates::cx(), {0, 1}, 2000, 1.0, &dense));
  }
  for (int n : {8, 12, 16}) {
    kernels.push_back(
        measure_kernel("2q-cnot-perm", n, qcut::gates::cx(), {0, 1}, 2000, 0.5, nullptr));
  }
  for (int n : {8, 12, 16}) {
    kernels.push_back(measure_kernel(
        "2q-cu1-sparse", n, qcut::gates::controlled(qcut::gates::phase(0.7)), {0, 1}, 2000,
        0.25, nullptr));
  }
  for (int n : {8, 12, 16}) {
    kernels.push_back(
        measure_kernel("2q-swap-perm", n, qcut::gates::swap(), {0, 1}, 2000, 0.5, nullptr));
  }
  for (const auto& kr : kernels) {
    std::printf("%-18s %8d %18.0f %10.2f\n", kr.name.c_str(), kr.qubits, kr.amps_per_sec,
                kr.gb_per_sec);
  }

  const QftKernelResult qft = measure_qft_kernels(16, 11);
  std::printf("\nQFT-%d workload (%zu ops, single thread, %d alternating reps): dense %.3fs, "
              "classified %.3fs -> median %.2fx (floor: 1.5x)\n",
              qft.qubits, qft.ops, qft.reps, qft.dense_seconds, qft.classified_seconds,
              qft.speedup);

  // ---- SIMD dispatch tiers -------------------------------------------------
  const qcut::SimdTier initial_tier = qcut::active_simd_tier();
  std::printf("\n=== SIMD kernel tiers (forced dispatch, 16 qubits; active: %s) ===\n",
              qcut::simd_tier_name(initial_tier));
  std::printf("%-8s %-14s %10s\n", "tier", "kernel", "GB/s");
  std::vector<TierKernelRow> tier_rows;
  // [tier][0] = dense 1q, [1] = dense 2q — for the AVX2-vs-scalar floor.
  double dense_gbs[2][2] = {{0.0, 0.0}, {0.0, 0.0}};
  for (const qcut::SimdTier tier : {qcut::SimdTier::kScalar, qcut::SimdTier::kAvx2}) {
    const char* tname = qcut::simd_tier_name(tier);
    if (!qcut::simd_tier_available(tier)) {
      std::printf("%-8s %-14s %10s\n", tname, "-", "absent");
      continue;
    }
    qcut::force_simd_tier(tier);
    const int tn = 16;
    const struct {
      const char* name;
      qcut::Matrix u;
      std::vector<int> qubits;
      double frac;
      bool force_dense;
    } specs[] = {
        {"1q-dense", qcut::gates::h(), {0}, 1.0, false},
        {"2q-dense", qcut::gates::cx(), {0, 1}, 1.0, true},
        {"1q-diag", qcut::gates::rz(0.7), {0}, 1.0, false},
        {"2q-sparse", qcut::gates::controlled(qcut::gates::phase(0.7)), {0, 1}, 0.25, false},
    };
    int spec_idx = 0;
    for (const auto& spec : specs) {
      const KernelRow kr = measure_kernel(spec.name, tn, spec.u, spec.qubits, 2000, spec.frac,
                                          spec.force_dense ? &dense : nullptr);
      if (spec_idx < 2) {
        dense_gbs[static_cast<int>(tier)][spec_idx] = kr.gb_per_sec;
      }
      ++spec_idx;
      std::printf("%-8s %-14s %10.2f\n", tname, spec.name, kr.gb_per_sec);
      tier_rows.push_back({tname, spec.name, tn, kr.gb_per_sec});
    }
  }
  qcut::force_simd_tier(initial_tier);
  const bool avx2_measured = qcut::simd_tier_available(qcut::SimdTier::kAvx2);
  const double avx2_1q_speedup =
      avx2_measured && dense_gbs[0][0] > 0.0 ? dense_gbs[1][0] / dense_gbs[0][0] : 0.0;
  const double avx2_2q_speedup =
      avx2_measured && dense_gbs[0][1] > 0.0 ? dense_gbs[1][1] / dense_gbs[0][1] : 0.0;
  if (avx2_measured) {
    std::printf("\nAVX2/scalar dense GB/s: 1q %.2fx, 2q %.2fx (floor: 2x)\n", avx2_1q_speedup,
                avx2_2q_speedup);
  }

  // ---- per-position kernels -------------------------------------------------
  // The 1q-dense pass at the highest stride is the yardstick: every family's
  // slowest position must stay within kPositionFloor of it.
  constexpr double kPositionFloor = 3.0;
  std::vector<PositionFamily> families;
  {
    qcut::Rng fam_rng(41);
    families = {
        {"1q-dense-ry", qcut::gates::ry(0.7), 1},
        {"1q-diag-rz", qcut::gates::rz(0.7), 1},
        {"2q-perm-cx", qcut::gates::cx(), 2},
        {"2q-sparse-cz", qcut::gates::cz(), 2},
        {"2q-sparse-cu1", qcut::gates::controlled(qcut::gates::phase(0.7)), 2},
        {"2q-diag", qcut::Matrix::identity(4), 2},
        {"2q-dense", qcut::haar_unitary(4, fam_rng), 2},
    };
    for (int i = 0; i < 4; ++i) {
      const qcut::Real phi = fam_rng.uniform(0.0, 2.0 * qcut::kPi);
      families[5].u(i, i) = qcut::Cplx{std::cos(phi), std::sin(phi)};
    }
  }
  const std::vector<PositionRow> positions = measure_positions(families);
  const double position_ref_us = positions.front().us_per_op;  // ry at the highest stride
  std::printf("\n=== Kernels by target position (%d qubits, us per op, min of %d x %d; "
              "worst/ref the median of per-batch ratios) ===\n",
              kPositionQubits, kPositionBatches, kPositionReps);
  std::printf("%-14s", "family");
  for (const int bit : kPositionBits) {
    std::printf(" %9s", ("s=" + std::to_string(qcut::Index{1} << bit)).c_str());
  }
  std::printf(" %10s\n", "worst/ref");
  std::vector<std::pair<std::string, double>> worst_ratio;
  for (std::size_t f = 0; f < families.size(); ++f) {
    std::printf("%-14s", families[f].name);
    for (std::size_t p = 0; p < std::size(kPositionBits); ++p) {
      std::printf(" %9.1f", positions[f * std::size(kPositionBits) + p].us_per_op);
    }
    // Batch b's ratio: the family's slowest position in b over the
    // reference row in b.
    std::vector<double> ratios;
    for (int b = 0; b < kPositionBatches; ++b) {
      double worst = 0.0;
      for (std::size_t p = 0; p < std::size(kPositionBits); ++p) {
        worst = std::max(worst, positions[f * std::size(kPositionBits) + p].batch_us[b]);
      }
      const double ref = positions.front().batch_us[b];
      ratios.push_back(ref > 0.0 ? worst / ref : 0.0);
    }
    const double ratio = median(ratios);
    worst_ratio.emplace_back(families[f].name, ratio);
    std::printf(" %9.2fx\n", ratio);
  }
  std::printf("floor: slowest position <= %.0fx the 1q-dense pass at the highest stride\n",
              kPositionFloor);

  // ---- gate fusion A/B -----------------------------------------------------
  const FusionBench fusion = measure_fusion(16, 8, 10);
  std::printf("\n=== Gate fusion (rz-ry-rz Euler layers + cx ladder, 16 qubits) ===\n");
  std::printf("ops %zu -> %zu (1q fused: %zu)\n", fusion.ops_before, fusion.ops_after,
              fusion.fused_1q);
  std::printf("unfused %.3fs, fused %.3fs -> %.2fx; max amplitude diff %.2e\n",
              fusion.unfused_seconds, fusion.fused_seconds, fusion.speedup,
              fusion.max_amp_diff);

  // ---- observability overhead ----------------------------------------------
  const ObsOverheadBench obs_bench = measure_obs_overhead(16, 31, 4);
  std::printf("\n=== Observability overhead (QFT-%d classified kernels, thread CPU time, median "
              "on/off ratio "
              "of %d off-first/on-first rep pairs x %d passes) ===\n",
              obs_bench.qubits, obs_bench.pairs, obs_bench.passes);
  std::printf("metrics off %.4fs, on %.4fs (best samples) -> median %+.2f%% (ceiling: 2%%)\n",
              obs_bench.off_seconds, obs_bench.on_seconds, 100.0 * obs_bench.overhead_frac);

  // ---- fusion crossover ------------------------------------------------------
  const std::vector<CrossoverRow> crossover = measure_fusion_crossover();
  std::printf("\n=== Fusion crossover (planned fragments, serial, us per term, min of %d "
              "batches; fused at width >= %d) ===\n",
              kCrossoverBatches, qcut::kMinFusionWidth);
  std::printf("%-10s %6s %6s %10s %10s %12s %8s %7s\n", "shape", "width", "terms", "fuse",
              "fused eval", "unfused eval", "ratio", "fused?");
  for (const CrossoverRow& row : crossover) {
    std::printf("%-10s %6d %6zu %10.2f %10.2f %12.2f %7.2fx %7s\n", row.shape.c_str(),
                row.width, row.terms, row.fuse_us, row.fused_us, row.unfused_us,
                (row.fuse_us + row.fused_us) / row.unfused_us,
                qcut::fusion_pays(row.width) ? "yes" : "no");
  }

  // ---- fan-out crossover ------------------------------------------------------
  const std::vector<FanoutRow> fanout = measure_fanout_crossover();
  std::printf("\n=== Fan-out crossover (cold variant evaluation, us, median of %d batches; "
              "fanned out at work >= %.0f) ===\n",
              kFanoutBatches, qcut::kMinFanoutWork);
  std::printf("%-16s %5s %6s %8s %12s %10s %10s %8s %7s\n", "case", "cuts", "terms",
              "variants", "work", "1 worker", "4 workers", "ratio", "pooled?");
  for (const FanoutRow& row : fanout) {
    std::printf("%-16s %5zu %6zu %8zu %12.0f %10.1f %10.1f %7.2fx %7s\n", row.name.c_str(),
                row.cuts, row.terms, row.variants, row.work, row.inline_us, row.pooled_us,
                row.inline_us / row.pooled_us, qcut::fanout_pays(row.work) ? "yes" : "no");
  }

  // ---- machine-readable record for perf-trajectory tracking across PRs -----
  std::ofstream json(json_path);
  json << "{\n  \"provenance\": " << qcut::obs::provenance_json(2) << ",\n";
  json << "  \"workload\": \"nme_f0.6_haar_Z\",\n  \"terms\": " << qpd.size()
       << ",\n  \"backends\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    json << "    {\"name\": \"" << r.name << "\", \"shots\": " << r.shots
         << ", \"threads\": " << r.threads << ", \"seconds\": " << r.seconds
         << ", \"shots_per_sec\": " << r.shots_per_sec << ", \"pool_tasks\": " << r.pool_tasks
         << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"speedup_batched_over_serial\": " << speedup << ",\n";
  json << "  \"fragment\": {\n    \"threads\": " << poolN.size() << ",\n    \"workloads\": [\n";
  for (std::size_t i = 0; i < frag_rows.size(); ++i) {
    const auto& fr = frag_rows[i];
    json << "      {\"name\": \"" << fr.name << "\", \"ok\": " << json_bool(fr.ok)
         << ", \"terms\": " << fr.terms << ", \"cuts\": " << fr.cuts
         << ", \"max_fragment_width\": " << fr.max_fragment_width
         << ", \"baseline_tractable\": " << json_bool(fr.has_baseline)
         << ", \"serial_terms_per_sec\": " << fr.serial_terms_per_sec
         << ", \"optimized_terms_per_sec\": " << fr.optimized_terms_per_sec
         << ", \"speedup\": " << fr.speedup
         << ", \"warm_minor_faults_per_term\": " << fr.warm_minor_faults_per_term << "}"
         << (i + 1 < frag_rows.size() ? "," : "")
         << "\n";
  }
  json << "    ],\n    \"aggregate_speedup\": " << frag_speedup
       << ",\n    \"speedup_floor\": 4.0,\n    \"floor_enforced\": "
       << json_bool(poolN.size() >= 4)
       << ",\n    \"bit_identical_pools_1_2_8\": " << json_bool(frag_bit_identical)
       << "\n  },\n";
  json << "  \"qft_kernel\": {\"qubits\": " << qft.qubits << ", \"ops\": " << qft.ops
       << ", \"reps\": " << qft.reps << ", \"dense_seconds\": " << qft.dense_seconds
       << ", \"classified_seconds\": " << qft.classified_seconds
       << ", \"speedup\": " << qft.speedup << ", \"speedup_floor\": 1.5},\n";
  json << "  \"simd\": {\n    \"active\": \"" << qcut::simd_tier_name(initial_tier)
       << "\",\n    \"available\": [";
  {
    bool first = true;
    for (const qcut::SimdTier tier : {qcut::SimdTier::kScalar, qcut::SimdTier::kAvx2}) {
      if (qcut::simd_tier_available(tier)) {
        json << (first ? "" : ", ") << "\"" << qcut::simd_tier_name(tier) << "\"";
        first = false;
      }
    }
  }
  json << "],\n    \"tiers\": [\n";
  for (std::size_t i = 0; i < tier_rows.size(); ++i) {
    const auto& tr = tier_rows[i];
    json << "      {\"tier\": \"" << tr.tier << "\", \"kernel\": \"" << tr.kernel
         << "\", \"qubits\": " << tr.qubits << ", \"gb_per_sec\": " << tr.gb_per_sec << "}"
         << (i + 1 < tier_rows.size() ? "," : "") << "\n";
  }
  json << "    ],\n    \"avx2_dense_speedup_1q\": " << avx2_1q_speedup
       << ",\n    \"avx2_dense_speedup_2q\": " << avx2_2q_speedup
       << ",\n    \"speedup_floor\": 2.0,\n    \"floor_enforced\": " << json_bool(avx2_measured)
       << "\n  },\n";
  json << "  \"fusion\": {\"qubits\": " << fusion.qubits
       << ", \"ops_before\": " << fusion.ops_before << ", \"ops_after\": " << fusion.ops_after
       << ", \"fused_1q\": " << fusion.fused_1q
       << ", \"unfused_seconds\": " << fusion.unfused_seconds
       << ", \"fused_seconds\": " << fusion.fused_seconds
       << ", \"speedup\": " << fusion.speedup
       << ", \"max_amp_diff\": " << fusion.max_amp_diff << "},\n";
  json << "  \"fusion_crossover\": {\"batches\": " << kCrossoverBatches
       << ", \"min_fusion_width\": " << qcut::kMinFusionWidth << ",\n    \"rows\": [\n";
  for (std::size_t i = 0; i < crossover.size(); ++i) {
    const CrossoverRow& row = crossover[i];
    json << "      {\"shape\": \"" << row.shape << "\", \"width\": " << row.width
         << ", \"terms\": " << row.terms << ", \"reps\": " << row.reps
         << ", \"fuse_us\": " << row.fuse_us << ", \"fused_eval_us\": " << row.fused_us
         << ", \"unfused_eval_us\": " << row.unfused_us << "}"
         << (i + 1 < crossover.size() ? "," : "") << "\n";
  }
  json << "    ]\n  },\n";
  json << "  \"fanout_crossover\": {\"batches\": " << kFanoutBatches
       << ", \"min_fanout_work\": " << qcut::kMinFanoutWork << ",\n    \"rows\": [\n";
  for (std::size_t i = 0; i < fanout.size(); ++i) {
    const FanoutRow& row = fanout[i];
    json << "      {\"case\": \"" << row.name << "\", \"qubits\": " << row.qubits
         << ", \"cuts\": " << row.cuts << ", \"terms\": " << row.terms
         << ", \"variants\": " << row.variants << ", \"work\": " << std::llround(row.work)
         << ", \"reps\": " << row.reps << ", \"inline_us\": " << row.inline_us
         << ", \"pooled_us\": " << row.pooled_us << "}" << (i + 1 < fanout.size() ? "," : "")
         << "\n";
  }
  json << "    ]\n  },\n";
  json << "  \"observability\": {\"qubits\": " << obs_bench.qubits
       << ", \"ops\": " << obs_bench.ops << ", \"pairs\": " << obs_bench.pairs
       << ", \"passes\": " << obs_bench.passes
       << ", \"metrics_off_seconds\": " << obs_bench.off_seconds
       << ", \"metrics_on_seconds\": " << obs_bench.on_seconds
       << ", \"overhead_frac\": " << obs_bench.overhead_frac
       << ", \"overhead_ceiling\": 0.02},\n";
  json << "  \"positions\": {\"qubits\": " << kPositionQubits
       << ", \"reference_us\": " << position_ref_us << ", \"ratio_floor\": " << kPositionFloor
       << ",\n    \"worst_ratio\": {";
  for (std::size_t i = 0; i < worst_ratio.size(); ++i) {
    json << (i ? ", " : "") << "\"" << worst_ratio[i].first << "\": " << worst_ratio[i].second;
  }
  json << "},\n    \"rows\": [\n";
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const PositionRow& row = positions[i];
    json << "      {\"family\": \"" << row.family << "\", \"stride\": " << row.stride
         << ", \"qubits\": [";
    for (std::size_t q = 0; q < row.qubits.size(); ++q) {
      json << (q ? ", " : "") << row.qubits[q];
    }
    json << "], \"us_per_op\": " << row.us_per_op << "}"
         << (i + 1 < positions.size() ? "," : "") << "\n";
  }
  json << "    ]\n  },\n";
  json << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const auto& kr = kernels[i];
    json << "    {\"name\": \"" << kr.name << "\", \"qubits\": " << kr.qubits
         << ", \"amps_per_sec\": " << kr.amps_per_sec << ", \"gb_per_sec\": " << kr.gb_per_sec
         << "}" << (i + 1 < kernels.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::printf("\nwrote %s\n", json_path.c_str());

  // Gates LAST, after the JSON record is on disk — a regressing run must
  // still leave its perf trajectory behind for diagnosis.
  if (rows[0].estimate != rows[1].estimate || rows[2].estimate != rows[3].estimate) {
    std::printf("ERROR: parallel estimate differs from single-thread estimate\n");
    return 1;
  }
  if (serial_shots > 0 && batched_shots > 0 && speedup < 10.0) {
    std::printf("ERROR: batched/serial speedup %.1fx is below the 10x acceptance floor\n",
                speedup);
    return 1;
  }
  if (!fragment_workloads_ok) {
    std::printf("ERROR: a fragment workload failed to plan or evaluate\n");
    return 1;
  }
  if (!frag_bit_identical) {
    std::printf("ERROR: fragment results are not bit-identical across pool sizes\n");
    return 1;
  }
  if (poolN.size() >= 4 && frag_speedup < 4.0) {
    std::printf("ERROR: fragment-path speedup %.1fx is below the 4x acceptance floor\n",
                frag_speedup);
    return 1;
  }
  if (qft.speedup < 1.5) {
    std::printf("ERROR: QFT kernel speedup %.2fx is below the 1.5x acceptance floor\n",
                qft.speedup);
    return 1;
  }
  if (avx2_measured && (avx2_1q_speedup < 2.0 || avx2_2q_speedup < 2.0)) {
    std::printf("ERROR: AVX2 dense GB/s (1q %.2fx, 2q %.2fx over scalar) is below the 2x "
                "acceptance floor\n",
                avx2_1q_speedup, avx2_2q_speedup);
    return 1;
  }
  for (const auto& [family, ratio] : worst_ratio) {
    if (ratio > kPositionFloor) {
      std::printf("ERROR: %s at its slowest position costs %.2fx the 1q-dense pass at the "
                  "highest stride (floor: %.0fx)\n",
                  family.c_str(), ratio, kPositionFloor);
      return 1;
    }
  }
  if (fusion.ops_after >= fusion.ops_before || fusion.max_amp_diff > 1e-10) {
    std::printf("ERROR: fusion failed (ops %zu -> %zu, max amp diff %.2e)\n", fusion.ops_before,
                fusion.ops_after, fusion.max_amp_diff);
    return 1;
  }
  if (obs_bench.overhead_frac > 0.02) {
    std::printf("ERROR: metrics overhead %.2f%% on the hot kernels exceeds the 2%% ceiling\n",
                100.0 * obs_bench.overhead_frac);
    return 1;
  }
  return 0;
}
