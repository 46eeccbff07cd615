#include "qcut/core/experiment.hpp"

#include <cmath>
#include <sstream>

#include "qcut/common/stats.hpp"
#include "qcut/common/threadpool.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/exec/engine.hpp"
#include "qcut/linalg/random.hpp"

namespace qcut {

std::vector<Fig6Row> run_fig6(const Fig6Config& cfg) {
  QCUT_CHECK(cfg.n_states >= 1, "run_fig6: need at least one state");
  QCUT_CHECK(!cfg.shot_grid.empty(), "run_fig6: empty shot grid");
  QCUT_CHECK(!cfg.overlaps.empty(), "run_fig6: empty overlap list");

  auto factory = cfg.protocol_factory;
  if (!factory) {
    factory = [](Real f) -> std::shared_ptr<const WireCutProtocol> {
      return std::make_shared<NmeCut>(NmeCut::from_overlap(f));
    };
  }

  std::vector<Fig6Row> rows;
  for (Real f : cfg.overlaps) {
    const auto protocol = factory(f);
    const Real kappa = protocol->kappa();

    // Accumulators: one slot per chunk, merged in chunk order afterwards.
    // Chunk size is pool-size independent and each task writes only its own
    // slot, so mean/sem are bit-identical for any pool size (RunningStats
    // merges are floating-point and therefore order-sensitive).
    const std::size_t n_states = static_cast<std::size_t>(cfg.n_states);
    const std::size_t chunk = 8;
    const std::size_t n_chunks = (n_states + chunk - 1) / chunk;
    std::vector<std::vector<RunningStats>> chunk_stats(
        n_chunks, std::vector<RunningStats>(cfg.shot_grid.size()));
    const auto run_states = [&](std::size_t lo, std::size_t hi) {
      std::vector<RunningStats>& local = chunk_stats[lo / chunk];
      for (std::size_t s = lo; s < hi; ++s) {
        // One deterministic stream per (overlap, state): reproducible
        // regardless of scheduling.
        Rng rng(cfg.seed ^ static_cast<std::uint64_t>(std::llround(f * 1e6)),
                static_cast<std::uint64_t>(s));
        CutInput input;
        input.prep = haar_unitary(2, rng);
        input.observable = cfg.observable;

        const Real exact = uncut_expectation(input);
        const Qpd qpd = protocol->build_qpd(input);
        // One backend per state: its exact probabilities serve every
        // shot-grid entry, each run on its own seed from the state's stream.
        const BatchedBranchBackend backend(qpd);

        for (std::size_t g = 0; g < cfg.shot_grid.size(); ++g) {
          const ShotPlan plan = ShotPlan::allocated(qpd, cfg.shot_grid[g], cfg.rule);
          const auto er = run_plan(qpd, plan, backend, rng());
          local[g].add(std::abs(er.estimate - exact));
        }
      }
    };
    request_pool().parallel_for_chunked(0, n_states, chunk, run_states);

    std::vector<RunningStats> stats(cfg.shot_grid.size());
    for (std::size_t c = 0; c < n_chunks; ++c) {
      for (std::size_t g = 0; g < cfg.shot_grid.size(); ++g) {
        stats[g].merge(chunk_stats[c][g]);
      }
    }

    for (std::size_t g = 0; g < cfg.shot_grid.size(); ++g) {
      Fig6Row row;
      row.f = f;
      row.shots = cfg.shot_grid[g];
      row.mean_error = stats[g].mean();
      row.sem = stats[g].sem();
      row.kappa = kappa;
      rows.push_back(row);
    }
  }
  return rows;
}

std::string format_fig6(const std::vector<Fig6Row>& rows) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  Real last_f = -1.0;
  for (const auto& r : rows) {
    if (r.f != last_f) {
      os.precision(3);
      os << "\n# f(Phi_k) = " << r.f << "  (kappa = " << r.kappa << ")\n";
      os << "#   shots    mean_error      sem\n";
      last_f = r.f;
    }
    os.precision(6);
    os << "  " << r.shots;
    for (std::size_t pad = std::to_string(r.shots).size(); pad < 8; ++pad) {
      os << ' ';
    }
    os << "  " << r.mean_error << "    " << r.sem << "\n";
  }
  return os.str();
}

}  // namespace qcut
